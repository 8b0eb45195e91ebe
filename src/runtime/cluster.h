#ifndef MASSBFT_RUNTIME_CLUSTER_H_
#define MASSBFT_RUNTIME_CLUSTER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/result.h"
#include "core/client_table.h"
#include "core/experiment.h"
#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "obs/stats_server.h"
#include "runtime/node_runtime.h"

namespace massbft {

/// A threaded MassBFT cluster over a real transport.
struct RealClusterConfig {
  /// Latency/bandwidth parameters are ignored by the transport (the real
  /// network provides timing); group_sizes and the fault bounds matter.
  TopologyConfig topology;
  ProtocolConfig protocol;
  WorkloadKind workload = WorkloadKind::kYcsbA;
  double workload_scale = 0.1;
  /// Closed-loop clients per group (one outstanding transaction each).
  int clients_per_group = 16;
  /// Wall-clock transaction-issuing window.
  double duration_seconds = 3.0;
  uint64_t seed = 42;
  /// Signature backend. Real clusters default to real ed25519 (RFC 8032);
  /// kSimulatedHmac remains available for apples-to-apples comparison with
  /// the simulated figures. With ed25519 the simulated per-op CPU charges
  /// are zeroed — the curve arithmetic pays its cost in wall time.
  CryptoScheme crypto = CryptoScheme::kEd25519;
  /// false = in-process transport fabric; true = TCP over localhost.
  bool use_tcp = false;
  uint16_t base_port = 18200;

  /// Network fault injection: when any() is true every node's transport is
  /// wrapped in a FaultInjectingTransport (per-node seed derived from
  /// FaultSpec::seed, so runs are reproducible). Partition windows are
  /// offsets from Run()'s start.
  FaultSpec net_faults;
  /// The simulator's crash/recover schedule (offsets clamped to the issuing
  /// window). Setup() rejects Byzantine tampering: its colluding nodes
  /// share encodings through the simulator's ClusterContext.
  FaultPlan faults;

  // ---- Observability (DESIGN.md §14).
  /// Record per-node protocol traces and write the merged cluster-wide
  /// Chrome trace (one process per node, cross-node flow arrows) here
  /// after the run. Empty = no trace (and no trace recording).
  std::string trace_path;
  /// Live introspection: -1 = no stats server; otherwise a localhost HTTP
  /// server on this port (0 = ephemeral, see stats_port()) serving
  /// /metrics (Prometheus text) and /health (cluster JSON) from Setup()
  /// until destruction.
  int stats_port = -1;
};

/// Builds one NodeRuntime per node, drives closed-loop clients against the
/// group leaders for the configured duration, then drains until nothing is
/// outstanding and every node holds the same state, or until commits stop.
/// The client table (and liveness oracle), the fault plan, the agreement
/// oracle and the telemetry half of the result are the ones Experiment
/// uses. Usage mirrors Experiment:
///   RealCluster cluster(config);
///   MASSBFT_RETURN_IF_ERROR(cluster.Setup());
///   auto result = cluster.Run();   // Result<ExperimentResult>, mode "real"
class RealCluster {
 public:
  explicit RealCluster(RealClusterConfig config);
  ~RealCluster();

  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  /// Builds registry, topology and every runtime (main thread; no threads
  /// are started yet).
  [[nodiscard]] Status Setup();

  /// Runs the cluster: start, issue (executing the fault plan), drain,
  /// verify agreement across continuously-correct nodes, stop. Fails with
  /// Internal if, stalled or not, they end in different states; a stall is
  /// reported in `failed`.
  [[nodiscard]] Result<ExperimentResult> Run();

  /// Crash-stops one node: GroupNode::Crash() on its event loop, then the
  /// runtime (transport included) is stopped. A crashed leader's clients
  /// are lost with it. Callable mid-run from the driving thread.
  [[nodiscard]] Status KillNode(NodeId id);

  /// Restarts a killed node and posts GroupNode::Recover() — the node
  /// rejoins, catches up from a peer, and resumes, but stays excluded from
  /// agreement checks (it is a catching-up learner; see
  /// GroupNode::rejoined()). A restarted leader's clients resubmit.
  [[nodiscard]] Status RestartNode(NodeId id);

  const std::vector<std::unique_ptr<NodeRuntime>>& runtimes() const {
    return runtimes_;
  }

  /// Merges every node's trace recorder into one Chrome trace file (see
  /// obs::ClusterTraceMerger). Requires tracing to have been enabled; most
  /// callers just set RealClusterConfig::trace_path and let Run() do it.
  [[nodiscard]] Status WriteMergedTrace(const std::string& path) const;

  /// Bound port of the stats server (valid after Setup() when
  /// config.stats_port >= 0; resolves an ephemeral request).
  uint16_t stats_port() const { return stats_server_.port(); }

 private:
  NodeRuntime* runtime(NodeId id);
  /// Posts the next transaction of client `client_index` to its group
  /// leader's event loop.
  void SubmitNext(size_t client_index);
  /// Fired on `leader`'s event-loop thread, `leader` being the origin
  /// group's leader.
  void OnTxnCommitted(NodeRuntime& leader, const Transaction& txn);
  /// Execution log and state of every node eligible for the agreement
  /// check: running and never crashed.
  std::vector<ReplicaState> Replicas();
  /// Client transactions outstanding, each group's counted on its leader's
  /// event loop.
  size_t Outstanding();
  /// Waits until nothing is outstanding and every replica holds one state,
  /// until nothing commits for the quiet window, or until kDrainTimeout.
  void DrainUntilStable();
  /// Executes the fault plan while sleeping out the issuing window.
  [[nodiscard]] Status IssueWindow();
  /// Starts the localhost stats server and registers /metrics + /health.
  [[nodiscard]] Status StartStatsServer();
  /// Prometheus text exposition of every node's metrics registry.
  std::string MetricsText();
  /// Cluster-health JSON: per-node liveness, progress, queue depth and
  /// transport health, plus cluster-wide commit/fault counters.
  std::string HealthJson();
  /// Dumps every node's flight recorder to stderr (called on any Run()
  /// failure, agreement included, so the last events before the failure
  /// are in the log).
  void DumpFlightRecorders(const char* why);

  RealClusterConfig config_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<KeyRegistry> registry_;
  InProcHub hub_;
  std::vector<std::unique_ptr<NodeRuntime>> runtimes_;

  /// Per-group payload generators: group g's instance is only touched from
  /// g's leader event-loop thread (all of g's clients submit there).
  std::vector<std::unique_ptr<Workload>> client_workloads_;
  std::unique_ptr<ClientTable> clients_;
  /// Per-group commit accounting on the leader's Elapsed() clock, same
  /// single-writer discipline; Run() merges them after the leaders stop.
  std::vector<MetricsCollector> group_metrics_;

  /// All cross-thread counters below use relaxed ordering: they are
  /// independent monotone tallies read for progress probes and reporting,
  /// and every read that must be exact happens after a thread join that
  /// already provides the synchronizes-with edge.
  std::atomic<bool> issuing_{false};
  /// Commits so far, for /health and the drain's progress probe.
  std::atomic<uint64_t> committed_{0};
  bool setup_done_ = false;

  /// Serializes node lifecycle transitions (KillNode/RestartNode/final
  /// stop) against stats-server handlers: a handler's NodeRuntime::Call
  /// must never overlap a Stop() that would clear the queued call before
  /// it runs. Outermost rank: held across runtime/transport teardown,
  /// never taken on event loops.
  RankedMutex introspection_mu_{"cluster.introspection_mu",
                                LockRank::kClusterIntrospection};
  obs::StatsServer stats_server_;

  /// Non-owning views of the per-node injectors (owned by the runtimes'
  /// transport chain); empty when net_faults.any() is false.
  std::vector<FaultInjectingTransport*> fault_transports_;
  int nodes_killed_ MASSBFT_GUARDED_BY(introspection_mu_) = 0;
};

}  // namespace massbft

#endif  // MASSBFT_RUNTIME_CLUSTER_H_
