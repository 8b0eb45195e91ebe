#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "obs/json_writer.h"

namespace massbft {

std::string ExperimentResult::ToJson() const {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Member("mode", mode);
  w.Member("crypto_mode", crypto_mode);
  w.Member("verify_batch_ratio", verify_batch_ratio);
  w.Member("throughput_tps", throughput_tps);
  w.Member("mean_latency_ms", mean_latency_ms);
  w.Member("p50_latency_ms", p50_latency_ms);
  w.Member("p99_latency_ms", p99_latency_ms);
  w.Member("committed_txns", committed_txns);
  w.Member("failed", failed);
  w.Member("aborted_txns", aborted_txns);
  w.Member("conflict_aborts", conflict_aborts);
  w.Member("avg_batch_size", avg_batch_size);
  w.Member("total_wan_bytes", total_wan_bytes);
  w.Member("total_lan_bytes", total_lan_bytes);
  w.Member("entries_proposed", entries_proposed);
  w.Member("wan_bytes_per_entry", wan_bytes_per_entry);
  w.Member("sim_events", sim_events);
  w.Member("wall_ms", wall_ms);
  w.Member("events_per_sec", events_per_sec);
  w.Member("sim_time_ratio", sim_time_ratio);
  w.Member("net_send_errors", net_send_errors);
  w.Member("net_decode_errors", net_decode_errors);
  w.Member("net_reconnects", net_reconnects);
  w.Member("net_dropped_backpressure", net_dropped_backpressure);
  w.Member("net_send_syscalls", net_send_syscalls);
  w.Member("net_recv_syscalls", net_recv_syscalls);
  w.Member("faults_injected", faults_injected);
  w.Member("nodes_killed", nodes_killed);
  w.Key("phases");
  w.BeginObject();
  w.Member("batching_ms", phases.batching_ms);
  w.Member("local_ms", phases.local_ms);
  w.Member("encode_ms", phases.encode_ms);
  w.Member("global_ms", phases.global_ms);
  w.Member("rebuild_ms", phases.rebuild_ms);
  w.Member("exec_ms", phases.exec_ms);
  w.Member("entries", phases.entries);
  w.Member("rebuilds", phases.rebuilds);
  w.Member("txns", phases.txns);
  w.Member("conflict_aborts", phases.conflict_aborts);
  w.Member("batch_size_sum", phases.batch_size_sum);
  w.EndObject();
  w.Key("timeline");
  w.BeginArray();
  for (const MetricsCollector::TimelinePoint& point : timeline) {
    w.BeginObject();
    w.Member("time_s", point.time_s);
    w.Member("tps", point.tps);
    w.Member("mean_latency_ms", point.mean_latency_ms);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out.str();
}

void AddTelemetry(obs::Telemetry& telemetry, ExperimentResult* result) {
  // The Fig 11 phase breakdown, derived from the spans the nodes recorded
  // into the registry (batching per transaction; the others per entry).
  PhaseStats& phases = result->phases;
  phases.batching_ms += telemetry.phase(obs::Phase::kBatching).sum();
  phases.local_ms += telemetry.phase(obs::Phase::kLocalConsensus).sum();
  phases.encode_ms += telemetry.phase(obs::Phase::kEncode).sum();
  phases.global_ms += telemetry.phase(obs::Phase::kGlobalReplication).sum();
  phases.rebuild_ms += telemetry.phase(obs::Phase::kRebuild).sum();
  phases.exec_ms += telemetry.phase(obs::Phase::kExecution).sum();
  phases.rebuilds += telemetry.phase(obs::Phase::kRebuild).count();
  phases.batch_size_sum +=
      static_cast<double>(telemetry.phase(obs::Phase::kBatching).count());
  obs::MetricsRegistry& registry = telemetry.registry();
  phases.entries += registry.GetCounter("node/entries_batched")->value();
  phases.txns += registry.GetCounter("exec/txns_executed")->value();
  phases.conflict_aborts +=
      registry.GetCounter("exec/conflict_aborts")->value();
  result->aborted_txns += registry.GetCounter("exec/logic_aborts")->value();

  result->conflict_aborts = phases.conflict_aborts;
  result->entries_proposed = phases.entries;
  result->avg_batch_size =
      phases.entries == 0
          ? 0
          : phases.batch_size_sum / static_cast<double>(phases.entries);
}

int64_t CommonPrefixLength(const std::vector<const ExecutionLog*>& logs) {
  // Compare the executed (gid, seq) sequences of all correct executing
  // nodes; they must be prefixes of one another (Theorem V.6 agreement).
  // Checking each log against the longest, not against any one node's,
  // catches two logs that diverge past a shorter third.
  const ExecutionLog* longest = nullptr;
  for (const ExecutionLog* log : logs)
    if (longest == nullptr || log->size() > longest->size()) longest = log;
  if (longest == nullptr) return 0;
  int64_t min_len = static_cast<int64_t>(longest->size());
  for (const ExecutionLog* log : logs) {
    min_len = std::min<int64_t>(min_len, static_cast<int64_t>(log->size()));
    if (!std::equal(log->begin(), log->end(), longest->begin())) return -1;
  }
  return min_len;
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {}

Experiment::~Experiment() = default;

GroupNode* Experiment::node(NodeId id) {
  for (auto& n : nodes_)
    if (n->id() == id) return n.get();
  return nullptr;
}

Status Experiment::Setup() {
  if (setup_done_) return Status::FailedPrecondition("Setup called twice");
  setup_done_ = true;

  sim_ = std::make_unique<Simulator>();
  MASSBFT_ASSIGN_OR_RETURN(Topology topo,
                           Topology::Create(config_.topology));
  topology_ = std::make_unique<Topology>(std::move(topo));
  registry_ = std::make_unique<KeyRegistry>();
  workload_ = MakeWorkload(config_.workload, config_.workload_scale);
  if (workload_ == nullptr)
    return Status::InvalidArgument("unknown workload kind");
  metrics_ = std::make_unique<MetricsCollector>(config_.warmup,
                                                config_.duration);

  ctx_ = std::make_unique<ClusterContext>();
  ctx_->registry = registry_.get();
  ctx_->topology = topology_.get();
  ctx_->workload = workload_.get();
  ctx_->on_txn_committed = [this](const Transaction& txn, SimTime t) {
    OnTxnCommitted(txn, t);
  };
  ctx_->telemetry->set_tracing(config_.enable_tracing);
  for (NodeId id : topology_->AllNodes()) {
    char name[32];
    std::snprintf(name, sizeof(name), "g%u/n%u",
                  static_cast<unsigned>(id.group),
                  static_cast<unsigned>(id.index));
    ctx_->telemetry->trace().RegisterTrack(obs::Telemetry::NodeTrack(
                                               id.Packed()),
                                           name);
  }
  for (int g = 0; g < topology_->num_groups(); ++g) {
    char name[32];
    std::snprintf(name, sizeof(name), "clients/g%d", g);
    ctx_->telemetry->trace().RegisterTrack(obs::Telemetry::ClientTrack(g),
                                           name);
  }

  network_ = std::make_unique<Network>(
      sim_.get(), topology_.get(),
      [this](NodeId dst, NodeId src, MessagePtr m) {
        GroupNode* target = node(dst);
        if (target != nullptr) target->HandleMessage(src, std::move(m));
      });
  network_->set_telemetry(ctx_->telemetry);

  // Build nodes; the highest-indexed nodes of each group are the Byzantine
  // ones when fault injection is configured (leaders stay correct, as in
  // the paper's Fig 15 setup where faulty nodes follow local consensus).
  for (NodeId id : topology_->AllNodes()) {
    GroupNode::FaultConfig fault;
    if (config_.faults.byzantine_per_group > 0 &&
        id.index >= topology_->group_size(id.group) -
                        config_.faults.byzantine_per_group) {
      fault.byzantine = true;
      fault.byzantine_from = config_.faults.byzantine_from;
    }
    auto n = std::make_unique<GroupNode>(sim_.get(), network_.get(), id,
                                         config_.protocol, ctx_.get(), fault);
    if (config_.execute_on_all_nodes) n->set_always_execute(true);
    nodes_.push_back(std::move(n));
  }
  for (auto& n : nodes_) n->Start();

  // Closed-loop clients, staggered over the first batch interval.
  Rng seed_rng(config_.seed);
  clients_ = std::make_unique<ClientTable>(seed_rng, topology_->num_groups(),
                                           config_.clients_per_group);
  for (size_t i = 0; i < clients_->size(); ++i) {
    SimTime stagger = static_cast<SimTime>(
        seed_rng.NextBelow(static_cast<uint64_t>(config_.protocol
                                                     .batch_timeout)));
    sim_->Schedule(stagger, [this, i] { SubmitNext(i); });
  }

  // Fault schedule.
  if (config_.faults.crash_group >= 0) {
    int g = config_.faults.crash_group;
    sim_->Schedule(config_.faults.crash_at, [this, g] {
      for (auto& n : nodes_)
        if (n->id().group == g) n->Crash();
      // Transactions held by the crashed leader are lost with it, not
      // stalled.
      std::erase_if(in_flight_, [this, g](uint64_t txn_id) {
        const size_t index =
            clients_->IndexOf(static_cast<uint32_t>(txn_id >> 32));
        return clients_->client(index).group == g;
      });
    });
    if (config_.faults.recover_at > config_.faults.crash_at) {
      sim_->Schedule(config_.faults.recover_at, [this, g] {
        for (auto& n : nodes_)
          if (n->id().group == g) n->Recover();
        // The region's clients reconnect and resume their closed loops.
        for (size_t i = 0; i < clients_->size(); ++i)
          if (clients_->client(i).group == g) SubmitNext(i);
      });
    }
  }
  return Status::OK();
}

void Experiment::SubmitNext(size_t client_index) {
  if (!issuing_) return;
  const ClientTable::Client& client = clients_->client(client_index);
  GroupNode* leader = node(NodeId{static_cast<uint16_t>(client.group), 0});
  if (leader == nullptr || leader->crashed()) return;  // Group down.

  SimTime submit_time = sim_->Now();
  if (ctx_->telemetry->tracing()) {
    ctx_->telemetry->trace().RecordInstant(
        obs::Telemetry::ClientTrack(client.group), "client", "submit",
        submit_time,
        obs::TraceArgs{{{"client", static_cast<double>(client.id)}}});
  }
  // Client -> leader half round trip. The transaction is materialized at
  // delivery: the capture stays a 24-byte POD (inline in the event heap),
  // and since each closed-loop client draws from its own forked rng, the
  // payload bytes are identical either way.
  sim_->Schedule(config_.client_rtt / 2, [this, client_index, submit_time] {
    const int group = clients_->client(client_index).group;
    GroupNode* l = node(NodeId{static_cast<uint16_t>(group), 0});
    if (l == nullptr || l->crashed()) return;
    Transaction txn = clients_->NextTxn(client_index, *workload_, submit_time);
    in_flight_.insert(txn.id);
    l->SubmitClientTxn(std::move(txn));
  });
}

void Experiment::OnTxnCommitted(const Transaction& txn, SimTime commit_time) {
  in_flight_.erase(txn.id);
  last_commit_at_ = commit_time;
  metrics_->RecordCommit(txn.submit_time, commit_time + config_.client_rtt / 2);
  const size_t client_index = clients_->IndexOf(txn.client);
  if (client_index >= clients_->size()) return;
  sim_->ScheduleAt(commit_time + config_.client_rtt, [this, client_index] {
    SubmitNext(client_index);
  });
}

ExperimentResult Experiment::Run() {
  MASSBFT_CHECK(setup_done_);
  uint64_t events_before = sim_->events_processed();
  // wall_ms measures the host, not the simulation; it is one of the three
  // documented nondeterministic result fields (DESIGN.md §10).
  // lint: wallclock-ok(host-side wall_ms field, DESIGN.md §10)
  auto wall_start = std::chrono::steady_clock::now();
  sim_->RunUntil(config_.duration);
  double wall_ms =
      std::chrono::duration<double, std::milli>(
          // lint: wallclock-ok(host-side wall_ms field, DESIGN.md §10)
          std::chrono::steady_clock::now() - wall_start)
          .count();

  // End-of-run per-link WAN uplink utilization (fraction of the link's
  // capacity the node's sends consumed over the whole run).
  obs::Telemetry& telemetry = *ctx_->telemetry;
  double run_seconds = SimToSeconds(config_.duration);
  for (NodeId id : topology_->AllNodes()) {
    double bps = topology_->wan_bps(id);
    if (bps <= 0 || run_seconds <= 0) continue;
    char name[48];
    std::snprintf(name, sizeof(name), "net/wan_uplink_util/g%u/n%u",
                  static_cast<unsigned>(id.group),
                  static_cast<unsigned>(id.index));
    double sent_bits =
        8.0 * static_cast<double>(network_->StatsFor(id).wan_bytes_sent);
    telemetry.registry().GetGauge(name)->Set(sent_bits /
                                             (bps * run_seconds));
  }

  ExperimentResult result;
  result.crypto_mode = registry_->scheme_name();
  result.verify_batch_ratio = registry_->verify_batch_ratio();
  result.throughput_tps = metrics_->ThroughputTps();
  result.mean_latency_ms = metrics_->MeanLatencyMs();
  result.p50_latency_ms = metrics_->P50LatencyMs();
  result.p99_latency_ms = metrics_->P99LatencyMs();
  result.committed_txns = metrics_->committed();
  AddTelemetry(telemetry, &result);
  result.total_wan_bytes = network_->TotalWanBytesSent();
  result.total_lan_bytes = network_->TotalLanBytesSent();
  result.wan_bytes_per_entry =
      result.entries_proposed == 0
          ? 0
          : static_cast<double>(result.total_wan_bytes) /
                static_cast<double>(result.entries_proposed);
  result.timeline = metrics_->Timeline();
  result.sim_events = sim_->events_processed();
  result.wall_ms = wall_ms;
  if (wall_ms > 0) {
    result.events_per_sec =
        static_cast<double>(sim_->events_processed() - events_before) *
        1000.0 / wall_ms;
    result.sim_time_ratio = SimToSeconds(config_.duration) * 1000.0 / wall_ms;
  }

  // Liveness oracle: stop issuing and let every submitted transaction
  // commit. One still pending when commits have stopped is a stall that
  // the closed loop would otherwise hide (its client just goes quiet).
  issuing_ = false;
  for (SimTime t = config_.duration;
       !in_flight_.empty() &&
       t < std::max(last_commit_at_, config_.duration) + kDrainQuiet;) {
    t += 100 * kMillisecond;
    sim_->RunUntil(t);
  }
  result.failed = in_flight_.size();
  return result;
}

int64_t Experiment::CheckAgreement() const {
  std::vector<const ExecutionLog*> logs;
  for (const auto& n : nodes_) {
    if (n->crashed() || n->rejoined()) continue;
    if (!config_.execute_on_all_nodes && n->id().index != 0) continue;
    logs.push_back(&n->execution_log());
  }
  return CommonPrefixLength(logs);
}

}  // namespace massbft
