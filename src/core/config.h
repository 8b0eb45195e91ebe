#ifndef MASSBFT_CORE_CONFIG_H_
#define MASSBFT_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "sim/actor.h"
#include "sim/time.h"

namespace massbft {

/// Evaluated systems (paper Table II) plus the Fig 12 ablations.
enum class ProtocolKind {
  kMassBft,   // EBR + Raft + async VTS ordering ("EBR+A").
  kBaseline,  // One-way leader + Raft + round ordering (Section II-A).
  kGeoBft,    // One-way leader broadcast, no global consensus, rounds.
  kSteward,   // Single-master: all entries funnel through group 0.
  kIss,       // Baseline + epoch-bucketed ordering.
  kBr,        // Ablation: bijective full-copy replication + rounds.
  kEbr,       // Ablation: encoded bijective replication + rounds.
};

const char* ProtocolKindName(ProtocolKind kind);

/// How entry payloads cross the WAN.
enum class ReplicationMode {
  kLeaderOneWay,       // Leader sends f+1 full copies per remote group.
  kBijective,          // f1+f2+1 nodes each send one full copy (Fig 5a).
  kEncodedBijective,   // Erasure-coded chunks per Algorithm 1 (Fig 5b).
};

/// How committed entries are globally ordered for execution.
enum class OrderingMode {
  kRoundSync,  // One entry per group per round, ordered by gid.
  kAsyncVts,   // MassBFT Algorithm 2.
  kFifo,       // Single global log (Steward).
  kEpoch,      // ISS epoch buckets.
};

/// Full protocol parameterization. The factory functions mirror the paper's
/// competitor configurations (Section VI, "Competitors").
struct ProtocolConfig {
  ProtocolKind kind = ProtocolKind::kMassBft;
  ReplicationMode replication = ReplicationMode::kEncodedBijective;
  OrderingMode ordering = OrderingMode::kAsyncVts;
  /// Global Raft accept/commit phases (off for GeoBFT).
  bool use_global_raft = true;
  /// All entries proposed through group 0's instance (Steward).
  bool single_master = false;

  /// Batching (paper: fixed 20 ms timeout for all competitors).
  SimTime batch_timeout = 20 * kMillisecond;
  int max_batch_size = 500;
  /// Outstanding (proposed, not globally committed) entries per group.
  int pipeline_depth = 32;

  /// ISS epoch length (paper: 0.1 s nationwide, 0.5 s worldwide).
  SimTime epoch_length = 100 * kMillisecond;

  /// MassBFT fault detection: a group silent this long is taken over.
  SimTime group_crash_timeout = 2 * kSecond;

  CpuModel cpu;

  static ProtocolConfig MassBft();
  static ProtocolConfig Baseline();
  static ProtocolConfig GeoBft();
  static ProtocolConfig Steward();
  static ProtocolConfig Iss();
  static ProtocolConfig Br();   // Bijective replication ablation.
  static ProtocolConfig Ebr();  // Encoded bijective ablation (no async).
  static ProtocolConfig ForKind(ProtocolKind kind);
};

}  // namespace massbft

#endif  // MASSBFT_CORE_CONFIG_H_
