#include "core/config.h"

namespace massbft {

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kMassBft:
      return "MassBFT";
    case ProtocolKind::kBaseline:
      return "Baseline";
    case ProtocolKind::kGeoBft:
      return "GeoBFT";
    case ProtocolKind::kSteward:
      return "Steward";
    case ProtocolKind::kIss:
      return "ISS";
    case ProtocolKind::kBr:
      return "BR";
    case ProtocolKind::kEbr:
      return "EBR";
  }
  return "unknown";
}

ProtocolConfig ProtocolConfig::MassBft() {
  ProtocolConfig cfg;
  cfg.kind = ProtocolKind::kMassBft;
  cfg.replication = ReplicationMode::kEncodedBijective;
  cfg.ordering = OrderingMode::kAsyncVts;
  cfg.use_global_raft = true;
  return cfg;
}

ProtocolConfig ProtocolConfig::Baseline() {
  ProtocolConfig cfg;
  cfg.kind = ProtocolKind::kBaseline;
  cfg.replication = ReplicationMode::kLeaderOneWay;
  cfg.ordering = OrderingMode::kRoundSync;
  cfg.use_global_raft = true;
  return cfg;
}

ProtocolConfig ProtocolConfig::GeoBft() {
  ProtocolConfig cfg;
  cfg.kind = ProtocolKind::kGeoBft;
  cfg.replication = ReplicationMode::kLeaderOneWay;
  cfg.ordering = OrderingMode::kRoundSync;
  cfg.use_global_raft = false;
  return cfg;
}

ProtocolConfig ProtocolConfig::Steward() {
  ProtocolConfig cfg;
  cfg.kind = ProtocolKind::kSteward;
  cfg.replication = ReplicationMode::kLeaderOneWay;
  cfg.ordering = OrderingMode::kFifo;
  cfg.use_global_raft = true;
  cfg.single_master = true;
  return cfg;
}

ProtocolConfig ProtocolConfig::Iss() {
  ProtocolConfig cfg;
  cfg.kind = ProtocolKind::kIss;
  cfg.replication = ReplicationMode::kLeaderOneWay;
  cfg.ordering = OrderingMode::kEpoch;
  cfg.use_global_raft = true;
  return cfg;
}

ProtocolConfig ProtocolConfig::Br() {
  ProtocolConfig cfg;
  cfg.kind = ProtocolKind::kBr;
  cfg.replication = ReplicationMode::kBijective;
  cfg.ordering = OrderingMode::kRoundSync;
  cfg.use_global_raft = true;
  return cfg;
}

ProtocolConfig ProtocolConfig::Ebr() {
  ProtocolConfig cfg;
  cfg.kind = ProtocolKind::kEbr;
  cfg.replication = ReplicationMode::kEncodedBijective;
  cfg.ordering = OrderingMode::kRoundSync;
  cfg.use_global_raft = true;
  return cfg;
}

ProtocolConfig ProtocolConfig::ForKind(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kMassBft:
      return MassBft();
    case ProtocolKind::kBaseline:
      return Baseline();
    case ProtocolKind::kGeoBft:
      return GeoBft();
    case ProtocolKind::kSteward:
      return Steward();
    case ProtocolKind::kIss:
      return Iss();
    case ProtocolKind::kBr:
      return Br();
    case ProtocolKind::kEbr:
      return Ebr();
  }
  return MassBft();
}

}  // namespace massbft
