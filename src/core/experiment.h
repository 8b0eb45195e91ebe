#ifndef MASSBFT_CORE_EXPERIMENT_H_
#define MASSBFT_CORE_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/client_table.h"
#include "core/config.h"
#include "core/group_node.h"
#include "obs/telemetry.h"
#include "crypto/signature.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "workload/workload.h"

namespace massbft {

/// Fault injection schedule (paper Section VI-E).
struct FaultPlan {
  /// Byzantine chunk-tampering nodes per group (the highest-indexed ones),
  /// active from `byzantine_from`.
  int byzantine_per_group = 0;
  SimTime byzantine_from = 0;
  /// Crash every node of this group at `crash_at` (-1 = none).
  int crash_group = -1;
  SimTime crash_at = 0;
  /// Recover the crashed group at this time (0 = stays down). The group
  /// rejoins, catches up from a peer and resumes serving its clients
  /// (paper Section V-C).
  SimTime recover_at = 0;
};

/// One simulated cluster run: topology + protocol + workload + faults.
struct ExperimentConfig {
  TopologyConfig topology;
  ProtocolConfig protocol;
  WorkloadKind workload = WorkloadKind::kYcsbA;
  /// Scales table cardinalities (1.0 = paper sizes). Tests use small
  /// scales for speed; benchmarks use 1.0.
  double workload_scale = 1.0;
  /// Closed-loop clients per group (each has one transaction outstanding).
  int clients_per_group = 400;
  SimTime duration = 12 * kSecond;
  SimTime warmup = 3 * kSecond;
  /// Client <-> group leader round trip (clients are near their group).
  SimTime client_rtt = 1 * kMillisecond;
  uint64_t seed = 42;
  FaultPlan faults;
  /// Execute on every node (agreement tests) instead of leaders only.
  bool execute_on_all_nodes = false;
  /// Record protocol trace spans (off by default; see Experiment::
  /// WriteTrace). Metrics counters/histograms are always collected.
  bool enable_tracing = false;
};

/// Aggregated outcome of a run.
struct ExperimentResult {
  /// "sim" for discrete-event runs, "real" when produced by the threaded
  /// runtime over an actual transport (runtime/RealCluster).
  std::string mode = "sim";
  /// Signature backend the run used (CryptoSchemeName: "hmac-sim" or
  /// "ed25519").
  std::string crypto_mode = "hmac-sim";
  /// Fraction of signature checks that rode the batched certificate path
  /// (KeyRegistry::verify_batch_ratio).
  double verify_batch_ratio = 0;
  double throughput_tps = 0;
  double mean_latency_ms = 0;
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  uint64_t committed_txns = 0;
  /// Liveness oracle: transactions submitted to a leader that stayed up and
  /// still uncommitted after the drain (Experiment::Run). 0 unless stalled.
  uint64_t failed = 0;
  /// Permanently-aborted (business-abort) transactions: they completed
  /// deterministically with no effects and were not retried.
  uint64_t aborted_txns = 0;
  uint64_t conflict_aborts = 0;
  double avg_batch_size = 0;
  /// Encoded bytes actually put on (simulated or real) links. In sim mode
  /// these are the same encoder-derived sizes the transport would send.
  uint64_t total_wan_bytes = 0;
  uint64_t total_lan_bytes = 0;
  uint64_t entries_proposed = 0;
  /// WAN bytes per proposed entry (replication efficiency, Fig 10).
  double wan_bytes_per_entry = 0;
  PhaseStats phases;
  std::vector<MetricsCollector::TimelinePoint> timeline;
  uint64_t sim_events = 0;
  /// Host wall-clock cost of the Run() event loop (not simulated time).
  double wall_ms = 0;
  /// Simulator events retired per wall-clock second (event-loop speed).
  double events_per_sec = 0;
  /// Simulated seconds per wall-clock second (>1 = faster than real time).
  double sim_time_ratio = 0;

  // ---- Transport health (real mode; all zero in sim mode). Aggregated
  // across every node's transport after the run.
  uint64_t net_send_errors = 0;
  uint64_t net_decode_errors = 0;
  uint64_t net_reconnects = 0;
  uint64_t net_dropped_backpressure = 0;
  /// Kernel round-trips the batched wire path actually paid (DESIGN.md
  /// §15): far below the frame count when sendmsg coalescing is working.
  uint64_t net_send_syscalls = 0;
  uint64_t net_recv_syscalls = 0;
  /// Frames dropped/duplicated/corrupted/delayed by the fault-injection
  /// layer (real mode with a FaultSpec; see net/fault_transport.h).
  uint64_t faults_injected = 0;
  /// Nodes crash-stopped by the run's fault schedule.
  int nodes_killed = 0;

  /// Machine-readable dump of every field above (one JSON object).
  std::string ToJson() const;
};

/// Adds one telemetry context's protocol counters into `result`: the Fig 11
/// phase sums, entries, executed transactions and aborts, then re-derives
/// entries_proposed, conflict_aborts and avg_batch_size from the running
/// totals. The simulator calls it once on its cluster-wide telemetry; the
/// threaded runtime once per node, so both report the same sums.
void AddTelemetry(obs::Telemetry& telemetry, ExperimentResult* result);

/// One node's executed (gid, seq) sequence.
using ExecutionLog = std::vector<std::pair<uint16_t, uint64_t>>;

/// The agreement oracle of Theorem V.6, shared by both harnesses: every log
/// must be a prefix of the longest one. Returns the length of the common
/// prefix (the shortest log), -1 when some log diverges from the longest,
/// and 0 when `logs` is empty.
int64_t CommonPrefixLength(const std::vector<const ExecutionLog*>& logs);

/// Builds and drives one simulated cluster. Usage:
///   Experiment exp(config);
///   MASSBFT_RETURN_IF_ERROR(exp.Setup());
///   ExperimentResult r = exp.Run();
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  Status Setup();
  /// Runs to `duration` and reads the result there, then stops issuing and
  /// drains until nothing is pending or nothing commits for kDrainQuiet.
  ExperimentResult Run();

  /// A saturated leader may hold thousands of queued transactions and
  /// commit them in bursts seconds apart; a stalled one commits nothing.
  static constexpr SimTime kDrainQuiet = 10 * kSecond;

  // ---- Observability.
  /// Cluster-wide telemetry (valid after Setup()).
  obs::Telemetry& telemetry() { return *ctx_->telemetry; }
  /// Writes the recorded protocol trace as Chrome trace-event JSON
  /// (requires ExperimentConfig::enable_tracing).
  Status WriteTrace(const std::string& path) const {
    return ctx_->telemetry->trace().WriteChromeTraceFile(path);
  }

  // ---- Test hooks.
  Simulator& sim() { return *sim_; }
  Network& network() { return *network_; }
  GroupNode* node(NodeId id);
  const std::vector<std::unique_ptr<GroupNode>>& nodes() const {
    return nodes_;
  }
  /// Verifies all continuously-correct executing nodes executed identical
  /// prefixes. Returns the length of the common prefix; -1 on divergence.
  /// Crashed and rejoined nodes are excluded: a rejoining replica is a
  /// catching-up learner whose authoritative state would come from a
  /// snapshot in production (see GroupNode::rejoined()).
  int64_t CheckAgreement() const;

 private:
  void SubmitNext(size_t client_index);
  void OnTxnCommitted(const Transaction& txn, SimTime commit_time);

  ExperimentConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<KeyRegistry> registry_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<MetricsCollector> metrics_;
  std::unique_ptr<ClusterContext> ctx_;
  std::vector<std::unique_ptr<GroupNode>> nodes_;
  std::unique_ptr<ClientTable> clients_;
  /// Ids of transactions submitted to a live leader and not yet committed.
  std::set<uint64_t> in_flight_;
  SimTime last_commit_at_ = 0;
  bool issuing_ = true;
  bool setup_done_ = false;
};

}  // namespace massbft

#endif  // MASSBFT_CORE_EXPERIMENT_H_
