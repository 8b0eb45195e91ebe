#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.h"
#include "runtime/cluster.h"

namespace massbft {
namespace {

RealClusterConfig SmallConfig() {
  RealClusterConfig config;
  config.topology = TopologyConfig::Nationwide(/*num_groups=*/2,
                                               /*nodes_per_group=*/4);
  config.protocol = ProtocolConfig::MassBft();
  config.workload = WorkloadKind::kYcsbA;
  config.workload_scale = 0.02;
  config.clients_per_group = 8;
  config.duration_seconds = 1.0;
  config.seed = 7;
  return config;
}

TEST(NodeRuntimeTest, CallRunsInlineBeforeStartAndPostDropsWhenStopped) {
  RealCluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.Setup().ok());
  NodeRuntime& rt = *cluster.runtimes()[0];

  // Before Start() there is no event loop: Call() degrades to an inline
  // call on this thread and Post() reports the drop.
  EXPECT_EQ(rt.Call([](GroupNode&) { return 41 + 1; }), 42);
  EXPECT_FALSE(rt.Post([] {}));
  EXPECT_EQ(rt.id(), (NodeId{0, 0}));
}

TEST(RealClusterTest, InProcClusterCommitsAndAgrees) {
  RealCluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->mode, "real");
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_GT(result->throughput_tps, 0.0);
  // Real encoded bytes crossed the transport in both tiers.
  EXPECT_GT(result->total_wan_bytes, 0u);
  EXPECT_GT(result->total_lan_bytes, 0u);
}

TEST(RealClusterTest, TcpClusterCommitsAndAgrees) {
  RealClusterConfig config = SmallConfig();
  config.use_tcp = true;
  config.base_port = 19350;
  config.duration_seconds = 0.5;
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_GT(result->total_wan_bytes, 0u);
}

TEST(RealClusterTest, SetupRejectsInvalidTopology) {
  RealClusterConfig config = SmallConfig();
  config.topology.group_sizes.clear();
  RealCluster cluster(config);
  EXPECT_FALSE(cluster.Setup().ok());
}

TEST(RealClusterTest, SetupRejectsByzantinePlan) {
  // Colluding Byzantine nodes share their tampered encodings through the
  // simulator's ClusterContext; the threaded runtime has no such channel.
  RealClusterConfig config = SmallConfig();
  config.faults.byzantine_per_group = 1;
  RealCluster cluster(config);
  EXPECT_TRUE(cluster.Setup().IsInvalidArgument());
}

TEST(RealClusterTest, KillAndRestartValidatePreconditions) {
  RealCluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.Setup().ok());
  // Unknown node.
  EXPECT_TRUE(cluster.KillNode(NodeId{9, 9}).IsNotFound());
  // Known node, but nothing is running before Run().
  EXPECT_FALSE(cluster.KillNode(NodeId{0, 1}).ok());
  // RestartNode on a node that was never killed-while-running still just
  // starts it; put it back down so the destructor's Stop() is a no-op.
  EXPECT_TRUE(cluster.RestartNode(NodeId{0, 1}).ok());
  EXPECT_TRUE(cluster.KillNode(NodeId{0, 1}).ok());
}

TEST(RealClusterTest, HeterogeneousGroupsDrainAndAgree) {
  // The Fig 12 shape on the real runtime: groups of 4, 7 and 7 nodes move
  // entries under LCM(4,7) = 28-chunk plans. Every node must rebuild every
  // entry from its own chunks, so the drain completes and all replicas
  // agree. A 50 ms batch timeout keeps the 18 nodes' idle liveness ticks
  // from saturating a sanitizer build's CPU.
  RealClusterConfig config = SmallConfig();
  config.topology = TopologyConfig::Nationwide(3, 7);
  config.topology.group_sizes = {4, 7, 7};
  config.protocol.batch_timeout = 50 * kMillisecond;
  config.clients_per_group = 64;
  config.duration_seconds = 2.0;
  config.crypto = CryptoScheme::kSimulatedHmac;  // Light enough for TSan.
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_EQ(result->failed, 0u);
}

TEST(RealClusterTest, CrashedFollowersRejoinOverTcp) {
  // Crash one follower per group, then restart it: the runtime restarts
  // the event loop without rewinding its virtual clock, the TCP writers
  // redial with backoff, and the node rejoins via Recover(). Agreement is
  // checked over the continuously-correct survivors.
  RealClusterConfig config = SmallConfig();
  config.use_tcp = true;
  config.base_port = 19380;
  config.duration_seconds = 1.5;
  config.faults.crash = {NodeId{0, 3}, NodeId{1, 3}};
  config.faults.crash_at = 300 * kMillisecond;
  config.faults.recover_at = 800 * kMillisecond;
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->nodes_killed, 2);
  // Peers kept (non-blockingly) redialing the dead node; once it came
  // back, at least one connection was re-established.
  EXPECT_GT(result->net_reconnects, 0u);
}

TEST(RealClusterTest, AgreesAcrossHealedPartition) {
  // Cut group 0 from group 1 for 0.4s mid-run, then heal. The replicas
  // must still agree. They do not stay live: every frame dropped in the
  // window is lost for good (global Raft does not retransmit and nothing
  // pulls a missing payload), so cross-group ordering wedges and all 16
  // clients end with a transaction outstanding (`failed` = 16). The
  // repair-pull item on the ROADMAP takes this run as its acceptance case.
  RealClusterConfig config = SmallConfig();
  config.duration_seconds = 1.5;
  FaultSpec::Partition partition;
  partition.start_s = 0.3;
  partition.end_s = 0.7;
  partition.side_a = {0};
  config.net_faults.seed = config.seed;
  config.net_faults.partitions.push_back(partition);
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  // The window really cut traffic (counted by the injectors) and the
  // counters surfaced into the result.
  EXPECT_GT(result->faults_injected, 0u);
}

TEST(RealClusterTest, AgreesUnderDuplicationAndDelay) {
  // Duplicate and delay frames on every link. Quorum collection and the
  // entry store must deduplicate, and delayed links stall progress
  // without breaking it. (The injector keeps each link FIFO — delay adds
  // latency, never reorderings — because the VTS engine's lower-bound
  // inference assumes per-channel monotone stamps, which real TCP
  // provides. Silent loss is likewise NOT injected: with
  // execute-on-all-nodes there is no per-frame retransmission — a
  // follower that misses an entry only recovers via the crash path's
  // catch-up — so loss-tolerance is exercised by the partition and
  // crash tests, whose windows end.)
  RealClusterConfig config = SmallConfig();
  config.duration_seconds = 1.2;
  config.net_faults.seed = 99;
  config.net_faults.duplicate_rate = 0.05;
  config.net_faults.delay_rate = 0.05;
  config.net_faults.delay_min_ms = 1.0;
  config.net_faults.delay_max_ms = 10.0;
  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->committed_txns, 0u);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_GT(result->faults_injected, 0u);
}

/// Minimal blocking HTTP GET against the cluster's localhost stats server.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<size_t>(n));
  ::close(fd);
  return response;
}

TEST(RealClusterTest, ObservabilityEndToEnd) {
  // The full DESIGN.md §14 surface in one faulty run: merged cluster trace
  // with cross-node flow arrows, mid-run Prometheus + health scrapes, and
  // a populated real-mode timeline and phase breakdown.
  RealClusterConfig config = SmallConfig();
  config.duration_seconds = 1.5;
  config.stats_port = 0;  // Ephemeral.
  config.trace_path = testing::TempDir() + "/runtime_obs_trace.json";
  config.net_faults.seed = config.seed;
  config.net_faults.duplicate_rate = 0.05;
  config.net_faults.delay_rate = 0.05;
  config.net_faults.delay_min_ms = 1.0;
  config.net_faults.delay_max_ms = 5.0;

  RealCluster cluster(config);
  ASSERT_TRUE(cluster.Setup().ok());
  ASSERT_GT(cluster.stats_port(), 0);

  // Scrape while the cluster is actually running: Run() on a worker
  // thread, the scrapes from here mid-window.
  Result<ExperimentResult> result = Status::Internal("never ran");
  std::thread runner([&] { result = cluster.Run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  const std::string metrics = HttpGet(cluster.stats_port(), "/metrics");
  const std::string health = HttpGet(cluster.stats_port(), "/health");
  runner.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failed, 0u);

  // Prometheus exposition: every node's registry behind one endpoint,
  // grouped under shared # TYPE headers with per-node labels.
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE massbft_"), std::string::npos);
  EXPECT_NE(metrics.find("{node=\"0/0\"}"), std::string::npos);
  EXPECT_NE(metrics.find("{node=\"1/3\"}"), std::string::npos);

  // Health view: JSON with per-node liveness and transport counters.
  EXPECT_NE(health.find("application/json"), std::string::npos);
  EXPECT_NE(health.find("\"mode\":\"real\""), std::string::npos);
  EXPECT_NE(health.find("\"running\":true"), std::string::npos);
  EXPECT_NE(health.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(health.find("\"reconnects\""), std::string::npos);

  // The commit accounting filled the real-mode timeline, and some bucket
  // saw commits.
  ASSERT_FALSE(result->timeline.empty());
  double peak_tps = 0;
  for (const auto& point : result->timeline)
    peak_tps = std::max(peak_tps, point.tps);
  EXPECT_GT(peak_tps, 0.0);

  // The per-node telemetry filled the same phase/batch fields the
  // simulator reports.
  EXPECT_GT(result->phases.entries, 0u);
  EXPECT_GT(result->avg_batch_size, 0.0);
  EXPECT_EQ(result->entries_proposed, result->phases.entries);

  // The merged trace exists, is one document for the whole cluster, and
  // carries cross-node flow arrows synthesized from wire trace contexts.
  std::ifstream in(config.trace_path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"trace_unix_anchor_ns\""), std::string::npos);
  EXPECT_NE(trace.find("\"node_count\":8"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"node 0/0\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  // Chaos-injector fault instants ride the owning node's track.
  EXPECT_NE(trace.find("\"cat\":\"fault\""), std::string::npos);
}

/// One fault scenario of the paper's Section VI-E, run by both harnesses.
struct FaultRow {
  const char* name;
  FaultPlan plan;
  /// False leaves the row to the simulator.
  bool real = true;
};

void PrintTo(const FaultRow& row, std::ostream* os) { *os << row.name; }

FaultPlan Plan(std::vector<NodeId> crash, double crash_at_s,
               double recover_at_s = 0) {
  FaultPlan plan;
  plan.crash = std::move(crash);
  plan.crash_at = SecondsToSim(crash_at_s);
  plan.recover_at = SecondsToSim(recover_at_s);
  return plan;
}

const TopologyConfig kFaultTopology = TopologyConfig::Nationwide(3, 4);
const std::vector<NodeId> kOneFollowerPerGroup = {NodeId{0, 3}, NodeId{1, 3},
                                                  NodeId{2, 3}};

class FaultPlanTest : public ::testing::TestWithParam<FaultRow> {};

TEST_P(FaultPlanTest, BothHarnessesAgreeAndStayLive) {
  // The same plan through the simulated and the threaded cluster, with the
  // same assertions: the continuously-correct replicas agree, and every
  // client outside a lost group got its last transaction committed. The
  // real rows use simulated-HMAC crypto so a TSan build can run them.
  const FaultRow& row = GetParam();
  constexpr double kSeconds = 3.0;
  ProtocolConfig protocol = ProtocolConfig::MassBft();
  protocol.group_crash_timeout = 1 * kSecond;
  auto check = [&](const char* mode, const ExperimentResult& result) {
    EXPECT_GT(result.committed_txns, 0u) << mode;
    EXPECT_EQ(result.failed, 0u) << mode;
    EXPECT_EQ(result.nodes_killed, static_cast<int>(row.plan.crash.size()))
        << mode;
  };

  ExperimentConfig sim;
  sim.topology = kFaultTopology;
  sim.protocol = protocol;
  sim.workload_scale = 0.02;
  sim.clients_per_group = 16;
  sim.duration = SecondsToSim(kSeconds);
  sim.warmup = kSecond / 2;
  sim.seed = 7;
  sim.faults = row.plan;
  Experiment experiment(sim);
  ASSERT_TRUE(experiment.Setup().ok());
  check("sim", experiment.Run());
  EXPECT_GE(experiment.CheckAgreement(), 1);
  if (!row.real) return;

  RealClusterConfig real;
  real.topology = kFaultTopology;
  real.protocol = protocol;
  real.workload_scale = sim.workload_scale;
  real.clients_per_group = sim.clients_per_group;
  real.duration_seconds = kSeconds;
  real.seed = sim.seed;
  real.crypto = CryptoScheme::kSimulatedHmac;
  real.faults = row.plan;
  RealCluster cluster(real);
  ASSERT_TRUE(cluster.Setup().ok());
  auto result = cluster.Run();  // Fails unless the replicas agree.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  check("real", *result);
}

INSTANTIATE_TEST_SUITE_P(
    FaultPlans, FaultPlanTest,
    ::testing::Values(
        FaultRow{"FollowerCrash", Plan(kOneFollowerPerGroup, 0.5)},
        FaultRow{"FollowerCrashRestart",
                 Plan(kOneFollowerPerGroup, 0.5, 1.5)},
        FaultRow{"GroupCrash", Plan(kFaultTopology.GroupNodes(2), 0.5)},
        // Sim-only: on the wire the recovered group sometimes never gets
        // its resubmitted transactions committed (`failed` = 16) and
        // sometimes leaves groups 0 and 1 disagreeing (CHANGES.md FOUND).
        FaultRow{"GroupCrashRecover",
                 Plan(kFaultTopology.GroupNodes(2), 0.5, 2.0),
                 /*real=*/false}),
    [](const ::testing::TestParamInfo<FaultRow>& info) {
      return std::string(info.param.name);
    });

TEST(FaultPlanTest, LeaderWithoutItsGroupIsRejected) {
  // Clients and global Raft always address index 0 and there is no local
  // view change, so a leader crashes only with its whole group.
  FaultPlan plan = Plan({NodeId{1, 0}}, 0.5);
  ExperimentConfig sim;
  sim.topology = kFaultTopology;
  sim.faults = plan;
  Experiment experiment(sim);
  EXPECT_TRUE(experiment.Setup().IsInvalidArgument());

  RealClusterConfig real = SmallConfig();
  real.faults = plan;
  RealCluster cluster(real);
  EXPECT_TRUE(cluster.Setup().IsInvalidArgument());
}

}  // namespace
}  // namespace massbft
