#include "runtime/cluster.h"

#include <algorithm>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "obs/json_writer.h"
#include "obs/prometheus.h"
#include "obs/trace_clock.h"
#include "obs/trace_merge.h"

namespace massbft {

namespace {

using Clock = std::chrono::steady_clock;

/// Wall-clock budget, after issuing stops, for every node to execute
/// everything that committed before it stopped.
constexpr std::chrono::seconds kDrainTimeout{20};
/// A drain with transactions outstanding and no commit for this long has
/// stalled; what is outstanding then counts as failed. DrainUntilStable
/// stretches it to twice group_crash_timeout: a cluster waiting out a
/// group takeover commits nothing.
constexpr std::chrono::seconds kDrainQuiet{5};

std::string NodeName(NodeId id) {
  return std::to_string(id.group) + "/" + std::to_string(id.index);
}

/// Empty entries leave the store alone and a stall freezes it, so every
/// replica of a drained cluster holds one state whatever its log length.
bool OneState(const std::vector<ReplicaState>& replicas) {
  return std::ranges::all_of(replicas, [&](const ReplicaState& r) {
    return r.fingerprint == replicas.front().fingerprint;
  });
}

}  // namespace

RealCluster::RealCluster(RealClusterConfig config)
    : config_(std::move(config)) {}

RealCluster::~RealCluster() {
  // Join the stats-server thread first: its handlers Call into runtimes,
  // so no handler may be in flight while the runtimes are torn down.
  stats_server_.Stop();
  MutexLock lock(&introspection_mu_);
  for (auto& rt : runtimes_) rt->Stop();
}

Status RealCluster::Setup() {
  if (setup_done_) return Status::FailedPrecondition("Setup() called twice");
  MASSBFT_ASSIGN_OR_RETURN(Topology topo,
                           Topology::Create(config_.topology));
  topology_ = std::make_unique<Topology>(std::move(topo));
  MASSBFT_RETURN_IF_ERROR(ValidateFaultPlan(config_.faults, config_.topology));
  if (config_.faults.byzantine_per_group > 0)
    return Status::InvalidArgument(
        "Byzantine tampering needs the simulator's collusion channel");
  registry_ = std::make_unique<KeyRegistry>(config_.crypto);
  if (config_.crypto == CryptoScheme::kEd25519) {
    // Real crypto pays its cost in wall time; zero the simulated per-op
    // charges so the work is not double-counted.
    config_.protocol.cpu.sign_cost = 0;
    config_.protocol.cpu.verify_cost = 0;
  }

  TcpPortMap ports;
  if (config_.use_tcp) {
    Result<TcpPortMap> port_map =
        MakeLocalPortMap(config_.topology.group_sizes, config_.base_port);
    MASSBFT_RETURN_IF_ERROR(port_map.status());
    // swap, not move-assign: GCC 12's -Wfree-nonheap-object misfires on
    // the (guarded, unreachable) bucket deallocation a move-assignment of
    // an unordered_map inlines here.
    ports.swap(*port_map);
  }

  // All runtimes (and thus all GroupNodes) are built here on the calling
  // thread: KeyRegistry::RegisterNode is not thread-safe, and nodes verify
  // each other's signatures through the shared registry.
  for (NodeId id : topology_->AllNodes()) {
    std::unique_ptr<Transport> transport =
        config_.use_tcp
            ? std::unique_ptr<Transport>(new TcpTransport(id, ports))
            : hub_.CreateTransport(id);
    if (config_.net_faults.any()) {
      // Per-node injector with a seed derived from the cluster seed and
      // the node id: every node draws an independent but reproducible
      // fault sequence.
      FaultSpec spec = config_.net_faults;
      spec.seed = config_.net_faults.seed * 0x9E3779B97F4A7C15ULL +
                  static_cast<uint64_t>(id.Packed()) + 1;
      auto injector = std::make_unique<FaultInjectingTransport>(
          std::move(transport), spec);
      fault_transports_.push_back(injector.get());
      transport = std::move(injector);
    }
    auto rt = std::make_unique<NodeRuntime>(
        id, config_.protocol, config_.workload, config_.workload_scale,
        registry_.get(), topology_.get(), std::move(transport));
    // Every node executes so the agreement check can compare all replicas.
    rt->node().set_always_execute(true);
    NodeRuntime* raw = rt.get();
    rt->set_on_txn_committed([this, raw](const Transaction& txn, SimTime) {
      OnTxnCommitted(*raw, txn);
    });
    if (!config_.trace_path.empty()) {
      // Tracing must be switched on before any node thread exists (the
      // enabled flag is not flippable under concurrent recording).
      rt->telemetry().set_tracing(true);
      rt->telemetry().trace().RegisterTrack(
          obs::Telemetry::NodeTrack(id.Packed()), "node " + NodeName(id));
    }
    runtimes_.push_back(std::move(rt));
  }

  if (config_.stats_port >= 0) MASSBFT_RETURN_IF_ERROR(StartStatsServer());

  Rng seed_rng(config_.seed);
  clients_ = std::make_unique<ClientTable>(seed_rng, topology_->num_groups(),
                                           config_.clients_per_group);
  for (int g = 0; g < topology_->num_groups(); ++g) {
    client_workloads_.push_back(
        MakeWorkload(config_.workload, config_.workload_scale));
    // No warm-up and no horizon: every commit counts, and Run() divides by
    // the issuing window itself.
    group_metrics_.emplace_back(0, std::numeric_limits<SimTime>::max());
  }

  setup_done_ = true;
  return Status::OK();
}

NodeRuntime* RealCluster::runtime(NodeId id) {
  for (auto& rt : runtimes_)
    if (rt->id() == id) return rt.get();
  return nullptr;
}

void RealCluster::SubmitNext(size_t client_index) {
  const int group = clients_->client(client_index).group;
  NodeRuntime* leader = runtime(NodeId{static_cast<uint16_t>(group), 0});
  if (leader == nullptr) return;
  // The transaction is materialized on the leader's event-loop thread:
  // each group's payload generator and its clients' rngs are only ever
  // touched there (single-writer; see client_workloads_).
  leader->Post([this, leader, client_index, group] {
    leader->node().SubmitClientTxn(clients_->NextTxn(
        client_index, *client_workloads_[static_cast<size_t>(group)],
        leader->Elapsed()));
  });
}

void RealCluster::OnTxnCommitted(NodeRuntime& leader, const Transaction& txn) {
  // submit_time was stamped by this same leader (SubmitNext), so the
  // latency is wall time on one clock.
  group_metrics_[leader.id().group].RecordCommit(txn.submit_time,
                                                 leader.Elapsed());
  committed_.fetch_add(1, std::memory_order_relaxed);
  const size_t client_index = clients_->Commit(txn);
  if (client_index < clients_->size() &&
      issuing_.load(std::memory_order_relaxed))
    SubmitNext(client_index);
}

Status RealCluster::KillNode(NodeId id) {
  // Serialized against stats handlers: Stop() clears the node's queue, so
  // a concurrent handler Call posted-but-unprocessed would never resolve.
  MutexLock lock(&introspection_mu_);
  NodeRuntime* rt = runtime(id);
  if (rt == nullptr)
    return Status::NotFound("no such node " + NodeName(id));
  if (!rt->running())
    return Status::FailedPrecondition("node " + NodeName(id) +
                                      " already stopped");
  obs::Telemetry& telemetry = rt->telemetry();
  telemetry.flight().Record(static_cast<uint64_t>(telemetry.TraceNowNs()),
                            "node", "kill", static_cast<double>(id.Packed()),
                            0);
  if (telemetry.tracing()) {
    telemetry.trace().RecordInstant(obs::Telemetry::NodeTrack(id.Packed()),
                                    "node", "kill", telemetry.TraceNowNs());
  }
  // Crash on the event loop first (cancels protocol timers via the epoch
  // bump) so a later restart resumes a node that knows it crashed, then
  // tear the runtime — and its transport — down.
  rt->Call([this, id](GroupNode& n) {
    n.Crash();
    // Transactions held by a crashed leader are lost with it, not stalled.
    if (id.index == 0) clients_->MarkLost(id.group);
    return true;
  });
  rt->Stop();
  ++nodes_killed_;
  return Status::OK();
}

Status RealCluster::RestartNode(NodeId id) {
  MutexLock lock(&introspection_mu_);
  NodeRuntime* rt = runtime(id);
  if (rt == nullptr)
    return Status::NotFound("no such node " + NodeName(id));
  if (rt->running())
    return Status::FailedPrecondition("node " + NodeName(id) +
                                      " is running");
  MASSBFT_RETURN_IF_ERROR(rt->Start());
  obs::Telemetry& telemetry = rt->telemetry();
  if (telemetry.tracing()) {
    telemetry.trace().RecordInstant(obs::Telemetry::NodeTrack(id.Packed()),
                                    "node", "restart",
                                    telemetry.TraceNowNs());
  }
  // Rejoin on the fresh event loop: Recover() re-arms the timers and, for
  // a leader, requests catch-up from a peer group (paper Section V-C). The
  // runtime deliberately did not re-run GroupNode::Start().
  rt->Post([rt] { rt->node().Recover(); });
  if (id.index == 0 && issuing_.load(std::memory_order_relaxed)) {
    // The recovered leader's clients reconnect and resume their loops.
    for (size_t i = 0; i < clients_->size(); ++i)
      if (clients_->client(i).group == id.group) SubmitNext(i);
  }
  return Status::OK();
}

std::vector<ReplicaState> RealCluster::Replicas() {
  // Killed nodes have no live state; rejoined nodes are catching-up
  // learners whose re-derived interleaving is not authoritative (the same
  // rule as Experiment::CheckAgreement).
  std::vector<ReplicaState> replicas;
  for (auto& rt : runtimes_) {
    if (!rt->running()) continue;
    // Call returns once the node's loop has run this: `replicas` is ours.
    rt->Call([&replicas](GroupNode& n) {
      if (!n.rejoined())
        replicas.push_back({n.execution_log(), n.store().StateFingerprint()});
      return true;
    });
  }
  return replicas;
}

Status RealCluster::IssueWindow() {
  const auto start = Clock::now();
  auto sleep_until_offset = [&](SimTime offset) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(std::min(
                        SimToSeconds(offset), config_.duration_seconds))));
  };
  const FaultPlan& faults = config_.faults;
  if (!faults.crash.empty()) {
    sleep_until_offset(faults.crash_at);
    for (NodeId id : faults.crash) MASSBFT_RETURN_IF_ERROR(KillNode(id));
    if (faults.recover_at > faults.crash_at) {
      sleep_until_offset(faults.recover_at);
      for (NodeId id : faults.crash) MASSBFT_RETURN_IF_ERROR(RestartNode(id));
    }
  }
  sleep_until_offset(SecondsToSim(config_.duration_seconds));
  return Status::OK();
}

size_t RealCluster::Outstanding() {
  size_t outstanding = 0;
  for (int g = 0; g < topology_->num_groups(); ++g) {
    NodeRuntime* leader = runtime(NodeId{static_cast<uint16_t>(g), 0});
    outstanding += leader->Call(
        [this, g](GroupNode&) { return clients_->Outstanding(g); });
  }
  return outstanding;
}

void RealCluster::DrainUntilStable() {
  // A VTS cluster never fully quiesces: the tail entries of each group can
  // only execute once other groups' clocks pass them, so idle leaders keep
  // proposing *empty* entries (the liveness tick). Convergence is judged
  // on state instead: nothing outstanding and one state at every replica.
  const auto deadline = Clock::now() + kDrainTimeout;
  const auto quiet = std::max<Clock::duration>(
      kDrainQuiet,
      std::chrono::nanoseconds(2 * config_.protocol.group_crash_timeout));
  auto last_commit = Clock::now();
  // Relaxed: a monotone progress probe; a stale read costs one poll.
  uint64_t committed = committed_.load(std::memory_order_relaxed);
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t now_committed = committed_.load(std::memory_order_relaxed);
    if (now_committed != committed) last_commit = Clock::now();
    committed = now_committed;
    if (Outstanding() > 0 ? Clock::now() - last_commit >= quiet
                          : OneState(Replicas()))
      return;
  }
}

Status RealCluster::StartStatsServer() {
  stats_server_.RegisterHandler("/metrics", [this] {
    obs::StatsServer::Response response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsText();
    return response;
  });
  stats_server_.RegisterHandler("/health", [this] {
    obs::StatsServer::Response response;
    response.content_type = "application/json";
    response.body = HealthJson();
    return response;
  });
  return stats_server_.Start(static_cast<uint16_t>(config_.stats_port));
}

std::string RealCluster::MetricsText() {
  std::vector<obs::LabeledSnapshot> snapshots;
  snapshots.reserve(runtimes_.size());
  {
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) {
      NodeRuntime* raw = rt.get();
      obs::LabeledSnapshot labeled;
      labeled.labels = "node=\"" + NodeName(raw->id()) + "\"";
      // Snapshot on the node's own event loop (or inline when stopped):
      // the registry maps are only ever touched single-threaded there.
      labeled.snapshot = raw->Call(
          [raw](GroupNode&) { return raw->telemetry().registry().Snapshot(); });
      snapshots.push_back(std::move(labeled));
    }
  }
  std::ostringstream out;
  obs::WritePrometheusText(snapshots, out);
  return out.str();
}

std::string RealCluster::HealthJson() {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Member("mode", "real");
  w.Member("committed_txns", committed_.load(std::memory_order_relaxed));
  {
    MutexLock lock(&introspection_mu_);
    w.Member("nodes_killed", nodes_killed_);
  }
  uint64_t faults = 0;
  for (const FaultInjectingTransport* injector : fault_transports_)
    faults += injector->fault_stats().total();
  w.Member("faults_injected", faults);
  w.Key("nodes");
  w.BeginArray();
  {
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) {
      NodeRuntime* raw = rt.get();
      const bool running = raw->running();
      w.BeginObject();
      w.Member("node", NodeName(raw->id()));
      w.Member("running", running);
      w.Member("queue_depth", static_cast<uint64_t>(raw->queue_depth()));
      struct Progress {
        uint64_t executed;
        bool rejoined;
      };
      // One inspection hop per node; a stopped runtime answers inline.
      const Progress progress = raw->Call([](GroupNode& n) {
        return Progress{n.executed_entries(), n.rejoined()};
      });
      w.Member("executed_entries", progress.executed);
      w.Member("rejoined", progress.rejoined);
      const Transport::Stats stats = raw->transport().stats();
      w.Member("reconnects", stats.reconnects);
      w.Member("send_errors", stats.send_errors);
      w.Member("decode_errors", stats.decode_errors);
      w.Member("backpressure_drops", stats.dropped_backpressure);
      w.Member("send_syscalls", stats.send_syscalls);
      w.Member("recv_syscalls", stats.recv_syscalls);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  return out.str();
}

void RealCluster::DumpFlightRecorders(const char* why) {
  std::cerr << "=== flight recorder dump (" << why << ") ===\n";
  for (auto& rt : runtimes_)
    rt->telemetry().flight().Dump(std::cerr, "node " + NodeName(rt->id()));
}

Status RealCluster::WriteMergedTrace(const std::string& path) const {
  obs::ClusterTraceMerger merger;
  merger.set_unix_anchor_ns(obs::TraceClock::UnixAnchorNs());
  for (const auto& rt : runtimes_) {
    merger.AddNode(rt->id().Packed(), "node " + NodeName(rt->id()),
                   rt->telemetry().trace_anchor_ns(), rt->telemetry().trace());
  }
  return merger.WriteChromeTraceFile(path);
}

Result<ExperimentResult> RealCluster::Run() {
  if (!setup_done_) return Status::FailedPrecondition("Setup() not called");
  const auto wall_start = Clock::now();

  // Every failure preserves the evidence (flight recorders to stderr,
  // merged trace to the configured path) and stops the cluster.
  auto fail = [&](const char* why, Status status) -> Status {
    // Relaxed: only asks commit callbacks to stop resubmitting; the Stop()
    // joins below are the ordering edge.
    issuing_.store(false, std::memory_order_relaxed);
    DumpFlightRecorders(why);
    if (!config_.trace_path.empty()) (void)WriteMergedTrace(config_.trace_path);
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) rt->Stop();
    return status;
  };

  for (auto& rt : runtimes_) {
    Status started = rt->Start();
    if (!started.ok()) return fail("start failed", started);
  }

  // Relaxed: commit callbacks only read issuing_ to decide whether to
  // resubmit; a stale true issues at most one extra transaction.
  issuing_.store(true, std::memory_order_relaxed);
  for (size_t i = 0; i < clients_->size(); ++i) SubmitNext(i);

  // Sleep out the issuing window, executing the crash/restart schedule at
  // its configured offsets.
  Status issued = IssueWindow();
  if (!issued.ok()) return fail("fault schedule failed", issued);
  issuing_.store(false, std::memory_order_relaxed);
  const double issue_window_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  // Let in-flight entries commit and execute everywhere. The VTS liveness
  // tick keeps advancing the global order even with no new client load.
  DrainUntilStable();
  const size_t failed = Outstanding();

  // Collect per-node state through each node's own event loop, then stop.
  const std::vector<ReplicaState> replicas = Replicas();
  ExperimentResult result;
  {
    // Held past the stops: a stats handler runs inline on a stopped
    // runtime, so the registries are read here under the same lock.
    MutexLock lock(&introspection_mu_);
    for (auto& rt : runtimes_) rt->Stop();
    for (auto& rt : runtimes_) AddTelemetry(rt->telemetry(), &result);
    result.nodes_killed = nodes_killed_;
  }
  result.failed = failed;

  if (replicas.empty())
    return fail("no surviving node",
                Status::Internal("no continuously-correct node survived to "
                                 "the agreement check"));
  if (!OneState(replicas) || CommonPrefixLength(replicas) < 0)
    return fail("replica divergence",
                Status::Internal("replicas disagree: they did not reach "
                                 "one state, or some execution log is not "
                                 "a prefix of the longest"));

  // The leaders' threads are joined: their collectors are safe to merge.
  MetricsCollector metrics(0, std::numeric_limits<SimTime>::max());
  for (const MetricsCollector& group : group_metrics_) metrics.Merge(group);
  result.mode = "real";
  result.crypto_mode = registry_->scheme_name();
  result.verify_batch_ratio = registry_->verify_batch_ratio();
  result.committed_txns = metrics.committed();
  result.throughput_tps =
      static_cast<double>(result.committed_txns) / issue_window_s;
  result.mean_latency_ms = metrics.MeanLatencyMs();
  result.p50_latency_ms = metrics.P50LatencyMs();
  result.p99_latency_ms = metrics.P99LatencyMs();
  result.timeline = metrics.Timeline();
  for (auto& rt : runtimes_) {
    result.total_wan_bytes += rt->network().wan_bytes_sent();
    result.total_lan_bytes += rt->network().lan_bytes_sent();
    // Transport counters survive Stop(); aggregate cluster-wide.
    const Transport::Stats stats = rt->transport().stats();
    result.net_send_errors += stats.send_errors;
    result.net_decode_errors += stats.decode_errors;
    result.net_reconnects += stats.reconnects;
    result.net_dropped_backpressure += stats.dropped_backpressure;
    result.net_send_syscalls += stats.send_syscalls;
    result.net_recv_syscalls += stats.recv_syscalls;
  }
  for (const FaultInjectingTransport* injector : fault_transports_)
    result.faults_injected += injector->fault_stats().total();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - wall_start)
          .count();
  if (result.entries_proposed > 0)
    result.wan_bytes_per_entry =
        static_cast<double>(result.total_wan_bytes) /
        static_cast<double>(result.entries_proposed);
  if (!config_.trace_path.empty())
    MASSBFT_RETURN_IF_ERROR(WriteMergedTrace(config_.trace_path));
  return result;
}

}  // namespace massbft
