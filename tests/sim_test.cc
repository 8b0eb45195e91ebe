#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/actor.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace massbft {
namespace {

// ---------------------------------------------------------------- Simulator

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, TiesFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.Schedule(100, [&order, i] { order.push_back(i); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedSchedulingDuringRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] {
    ++fired;
    sim.Schedule(5, [&] { ++fired; });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 15);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(10, [&] {
    sim.Schedule(-5, [&] { EXPECT_EQ(sim.Now(), 10); });
  });
  sim.RunAll();
}

TEST(SimulatorTest, MoveOnlyAndOversizedCapturesRun) {
  // Callbacks are InlineFunction, not std::function: move-only captures
  // are allowed, and captures larger than the inline buffer transparently
  // fall back to the heap.
  Simulator sim;
  sim.Reserve(4);
  auto token = std::make_unique<int>(7);
  int observed = 0;
  sim.Schedule(1, [token = std::move(token), &observed] { observed = *token; });
  std::array<uint64_t, 16> big{};
  big[15] = 42;
  uint64_t big_sum = 0;
  sim.Schedule(2, [big, &big_sum] { big_sum = big[15]; });
  sim.RunAll();
  EXPECT_EQ(observed, 7);
  EXPECT_EQ(big_sum, 42u);
}

// ---------------------------------------------------------------- Topology

TEST(TopologyTest, NationwidePresetShape) {
  TopologyConfig cfg = TopologyConfig::Nationwide(3, 7);
  ASSERT_TRUE(cfg.Validate().ok());
  auto topo = Topology::Create(cfg);
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo->num_groups(), 3);
  EXPECT_EQ(topo->total_nodes(), 21);
  EXPECT_EQ(topo->max_faulty(0), 2);  // (7-1)/3
  EXPECT_EQ(topo->max_faulty_groups(), 1);
  // RTT band from the paper: 26.7 - 43.4 ms one-way is rtt/2.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == j) continue;
      SimTime prop = topo->WanPropagation(NodeId{uint16_t(i), 0},
                                          NodeId{uint16_t(j), 0});
      EXPECT_GE(prop, MillisToSim(26.7 / 2));
      EXPECT_LE(prop, MillisToSim(43.4 / 2));
    }
  }
}

TEST(TopologyTest, WorldwideRttBand) {
  auto topo = Topology::Create(TopologyConfig::Worldwide(3, 7));
  ASSERT_TRUE(topo.ok());
  SimTime prop = topo->WanPropagation(NodeId{0, 0}, NodeId{2, 3});
  EXPECT_GE(prop, MillisToSim(156.0 / 2));
  EXPECT_LE(prop, MillisToSim(206.0 / 2));
}

TEST(TopologyTest, WanOverrides) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 4);
  cfg.wan_bps = 40e6;
  cfg.wan_overrides.push_back({NodeId{1, 2}, 20e6});
  auto topo = Topology::Create(cfg);
  ASSERT_TRUE(topo.ok());
  EXPECT_DOUBLE_EQ(topo->wan_bps(NodeId{0, 0}), 40e6);
  EXPECT_DOUBLE_EQ(topo->wan_bps(NodeId{1, 2}), 20e6);
}

TEST(TopologyTest, ValidationRejectsBadConfigs) {
  TopologyConfig empty;
  EXPECT_FALSE(empty.Validate().ok());

  TopologyConfig bad_rtt = TopologyConfig::Nationwide(3, 4);
  bad_rtt.rtt_ms.pop_back();
  EXPECT_FALSE(bad_rtt.Validate().ok());

  TopologyConfig bad_override = TopologyConfig::Nationwide(2, 4);
  bad_override.wan_overrides.push_back({NodeId{5, 0}, 1e6});
  EXPECT_FALSE(bad_override.Validate().ok());
}

TEST(TopologyTest, GroupNodesEnumerates) {
  auto topo = Topology::Create(TopologyConfig::Nationwide(2, 3));
  ASSERT_TRUE(topo.ok());
  auto nodes = topo->config().GroupNodes(1);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[2], (NodeId{1, 2}));
  EXPECT_EQ(topo->AllNodes().size(), 6u);
}

// ---------------------------------------------------------------- Network

/// Fixed-size test message.
class TestMessage : public SimMessage {
 public:
  explicit TestMessage(size_t bytes, int tag = 0) : bytes_(bytes), tag_(tag) {}
  size_t ByteSize() const override { return bytes_; }
  int type() const override { return tag_; }

 private:
  size_t bytes_;
  int tag_;
};

struct Delivery {
  NodeId dst;
  NodeId src;
  SimTime time;
  int tag;
};

class NetworkFixture : public ::testing::Test {
 protected:
  void Init(TopologyConfig cfg) {
    auto topo = Topology::Create(std::move(cfg));
    ASSERT_TRUE(topo.ok());
    topology_ = std::make_unique<Topology>(std::move(*topo));
    network_ = std::make_unique<Network>(
        &sim_, topology_.get(),
        [this](NodeId dst, NodeId src, MessagePtr m) {
          deliveries_.push_back({dst, src, sim_.Now(), m->type()});
        });
  }

  Simulator sim_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<Network> network_;
  std::vector<Delivery> deliveries_;
};

TEST_F(NetworkFixture, WanDeliveryIncludesSerializationAndPropagation) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 2);
  cfg.wan_bps = 20e6;
  Init(cfg);
  // 25_000 bytes at 20 Mbps = 10 ms serialization.
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 1u);
  SimTime prop = topology_->WanPropagation(NodeId{0, 0}, NodeId{1, 0});
  EXPECT_EQ(deliveries_[0].time, MillisToSim(10.0) + prop);
}

TEST_F(NetworkFixture, UplinkQueuesSequentialSends) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 2);
  cfg.wan_bps = 20e6;
  Init(cfg);
  // Two messages from the same source to different receivers must
  // serialize one after the other on the shared uplink.
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000, 1));
  network_->SendWan(NodeId{0, 0}, NodeId{1, 1},
                    std::make_shared<TestMessage>(25000, 2));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 2u);
  SimTime prop = topology_->WanPropagation(NodeId{0, 0}, NodeId{1, 0});
  EXPECT_EQ(deliveries_[0].time, MillisToSim(10.0) + prop);
  EXPECT_EQ(deliveries_[1].time, MillisToSim(20.0) + prop);
}

TEST_F(NetworkFixture, DistinctUplinksSendInParallel) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 2);
  cfg.wan_bps = 20e6;
  Init(cfg);
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000, 1));
  network_->SendWan(NodeId{0, 1}, NodeId{1, 1},
                    std::make_shared<TestMessage>(25000, 2));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 2u);
  // Both should arrive at the same time: independent uplinks/downlinks.
  EXPECT_EQ(deliveries_[0].time, deliveries_[1].time);
}

TEST_F(NetworkFixture, DownlinkConvergenceQueues) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 3);
  cfg.wan_bps = 20e6;
  Init(cfg);
  // Two senders converge on one receiver; the second delivery waits for the
  // receiver's downlink to drain.
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000, 1));
  network_->SendWan(NodeId{0, 1}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000, 2));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_GT(deliveries_[1].time, deliveries_[0].time);
  EXPECT_EQ(deliveries_[1].time - deliveries_[0].time, MillisToSim(10.0));
}

TEST_F(NetworkFixture, LanIsFasterThanWan) {
  Init(TopologyConfig::Nationwide(1, 3));
  network_->SendLan(NodeId{0, 0}, NodeId{0, 1},
                    std::make_shared<TestMessage>(25000));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 1u);
  // 25 kB at 2.5 Gbps is 80 us plus 250 us latency: well under 1 ms.
  EXPECT_LT(deliveries_[0].time, kMillisecond);
}

TEST_F(NetworkFixture, CrashedNodesDropTraffic) {
  Init(TopologyConfig::Nationwide(2, 2));
  network_->CrashNode(NodeId{1, 0});
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(100));
  network_->SendWan(NodeId{1, 0}, NodeId{0, 0},
                    std::make_shared<TestMessage>(100));
  sim_.RunAll();
  EXPECT_TRUE(deliveries_.empty());
  network_->RecoverNode(NodeId{1, 0});
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(100));
  sim_.RunAll();
  EXPECT_EQ(deliveries_.size(), 1u);
}

TEST_F(NetworkFixture, InFlightMessageToNodeCrashedBeforeArrivalIsDropped) {
  Init(TopologyConfig::Nationwide(2, 2));
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(100));
  // Crash after send but before delivery.
  sim_.Schedule(kMicrosecond, [&] { network_->CrashNode(NodeId{1, 0}); });
  sim_.RunAll();
  EXPECT_TRUE(deliveries_.empty());
}

TEST_F(NetworkFixture, TrafficStatsAccumulate) {
  Init(TopologyConfig::Nationwide(2, 2));
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(1000));
  network_->SendLan(NodeId{0, 0}, NodeId{0, 1},
                    std::make_shared<TestMessage>(500));
  sim_.RunAll();
  const TrafficStats& s = network_->StatsFor(NodeId{0, 0});
  EXPECT_EQ(s.wan_bytes_sent, 1000u);
  EXPECT_EQ(s.lan_bytes_sent, 500u);
  EXPECT_EQ(s.wan_messages_sent, 1u);
  EXPECT_EQ(network_->TotalWanBytesSent(), 1000u);
  EXPECT_EQ(network_->StatsFor(NodeId{1, 0}).wan_bytes_received, 1000u);
  network_->ResetStats();
  EXPECT_EQ(network_->TotalWanBytesSent(), 0u);
}

TEST_F(NetworkFixture, LoopbackDeliversImmediately) {
  Init(TopologyConfig::Nationwide(1, 2));
  network_->SendWan(NodeId{0, 0}, NodeId{0, 0},
                    std::make_shared<TestMessage>(1 << 20));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].time, 0);
}

// ---------------------------------------------------------------- CPU

TEST(CpuAccountTest, SerialChargesAccumulate) {
  Simulator sim;
  CpuModel model;
  model.cores = 1;
  model.verify_cost = 100 * kMicrosecond;
  CpuAccount cpu(&sim, model);
  EXPECT_EQ(cpu.ChargeVerify(), 100 * kMicrosecond);
  EXPECT_EQ(cpu.ChargeVerify(), 200 * kMicrosecond);
  EXPECT_EQ(cpu.total_charged(), 200 * kMicrosecond);
}

TEST(CpuAccountTest, CoresDivideCost) {
  Simulator sim;
  CpuModel model;
  model.cores = 8;
  CpuAccount cpu(&sim, model);
  SimTime done = cpu.Charge(800 * kMicrosecond);
  EXPECT_EQ(done, 100 * kMicrosecond);
}

TEST(CpuAccountTest, IdleGapsDoNotAccumulate) {
  Simulator sim;
  CpuModel model;
  model.cores = 1;
  CpuAccount cpu(&sim, model);
  cpu.Charge(10 * kMicrosecond);
  // Advance sim time past the busy period.
  sim.Schedule(kMillisecond, [] {});
  sim.RunAll();
  SimTime done = cpu.Charge(10 * kMicrosecond);
  EXPECT_EQ(done, kMillisecond + 10 * kMicrosecond);
}

TEST(CpuAccountTest, ChargeThenSchedulesAtCompletion) {
  Simulator sim;
  CpuModel model;
  model.cores = 1;
  CpuAccount cpu(&sim, model);
  SimTime fired_at = -1;
  cpu.ChargeThen(50 * kMicrosecond, [&] { fired_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(fired_at, 50 * kMicrosecond);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, ThroughputWindowExcludesWarmup) {
  MetricsCollector metrics(kSecond, 3 * kSecond);
  // 100 txns in warmup (excluded), 200 in window.
  for (int i = 0; i < 100; ++i)
    metrics.RecordCommit(0, kSecond / 2);
  for (int i = 0; i < 200; ++i)
    metrics.RecordCommit(2 * kSecond - 10 * kMillisecond, 2 * kSecond);
  EXPECT_EQ(metrics.committed(), 200u);
  EXPECT_DOUBLE_EQ(metrics.ThroughputTps(), 100.0);  // 200 over 2 s.
  EXPECT_DOUBLE_EQ(metrics.MeanLatencyMs(), 10.0);
}

TEST(MetricsTest, PercentilesSorted) {
  MetricsCollector metrics(0, 100 * kSecond);
  for (int i = 1; i <= 100; ++i)
    metrics.RecordCommit(0, i * kMillisecond);
  EXPECT_NEAR(metrics.P50LatencyMs(), 50.5, 1.0);
  EXPECT_NEAR(metrics.P99LatencyMs(), 99.0, 1.1);
}

TEST(MetricsTest, TimelineBucketsByCommitTime) {
  MetricsCollector metrics(0, 10 * kSecond, kSecond);
  metrics.RecordCommit(0, kSecond / 2, 10);
  metrics.RecordCommit(0, 2 * kSecond + 1, 20);
  auto timeline = metrics.Timeline();
  ASSERT_GE(timeline.size(), 3u);
  EXPECT_DOUBLE_EQ(timeline[0].tps, 10.0);
  EXPECT_DOUBLE_EQ(timeline[1].tps, 0.0);
  EXPECT_DOUBLE_EQ(timeline[2].tps, 20.0);
}

TEST(MetricsTest, MergeFoldsCommitsLatenciesAndTimeline) {
  MetricsCollector a(0, 10 * kSecond, kSecond);
  MetricsCollector b(0, 10 * kSecond, kSecond);
  a.RecordCommit(0, 10 * kMillisecond);
  b.RecordCommit(0, 30 * kMillisecond);
  b.RecordCommit(kSecond, 2 * kSecond + 20 * kMillisecond);
  a.Merge(b);
  EXPECT_EQ(a.committed(), 3u);
  EXPECT_DOUBLE_EQ(a.P50LatencyMs(), 30.0);
  auto timeline = a.Timeline();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_DOUBLE_EQ(timeline[0].tps, 2.0);
  EXPECT_DOUBLE_EQ(timeline[0].mean_latency_ms, 20.0);
  EXPECT_DOUBLE_EQ(timeline[2].tps, 1.0);
}

// Regression: Record() after a percentile read must invalidate the sorted
// cache, or later percentiles are computed over a stale ordering.
TEST(MetricsTest, PercentilesCorrectAfterInterleavedRecords) {
  LatencyStats stats;
  stats.Record(30 * kMillisecond);
  stats.Record(10 * kMillisecond);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(1.0), 30.0);  // Triggers the sort.
  stats.Record(20 * kMillisecond);  // Appended after the sort.
  stats.Record(5 * kMillisecond);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(0.0), 5.0);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(1.0), 30.0);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(0.5), 15.0);  // (10+20)/2.
  stats.Clear();
  EXPECT_DOUBLE_EQ(stats.PercentileMs(0.5), 0.0);
  stats.Record(40 * kMillisecond);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(1.0), 40.0);
}

TEST(MetricsTest, WindowBoundariesAreInclusive) {
  MetricsCollector metrics(kSecond, 3 * kSecond);
  metrics.RecordCommit(kSecond / 2, kSecond);      // Exactly at warmup_.
  metrics.RecordCommit(kSecond, 3 * kSecond);      // Exactly at horizon_.
  metrics.RecordCommit(0, kSecond - 1);            // Just before warmup_.
  metrics.RecordCommit(0, 3 * kSecond + 1);        // Just after horizon_.
  EXPECT_EQ(metrics.committed(), 2u);
  EXPECT_DOUBLE_EQ(metrics.ThroughputTps(), 1.0);  // 2 txns over 2 s.
}

TEST(MetricsTest, TimelineEmptyBucketsAndBatches) {
  MetricsCollector metrics(0, 10 * kSecond, kSecond);
  EXPECT_TRUE(metrics.Timeline().empty());

  // A multi-txn batch counts each transaction at the batch latency.
  metrics.RecordCommit(0, kSecond / 2, 4);
  // A commit three buckets later leaves two empty buckets in between.
  metrics.RecordCommit(3 * kSecond, 3 * kSecond + 500 * kMillisecond, 2);
  auto timeline = metrics.Timeline();
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_DOUBLE_EQ(timeline[0].time_s, 0.0);
  EXPECT_DOUBLE_EQ(timeline[0].tps, 4.0);
  EXPECT_DOUBLE_EQ(timeline[0].mean_latency_ms, 500.0);
  for (size_t i = 1; i <= 2; ++i) {
    EXPECT_DOUBLE_EQ(timeline[i].tps, 0.0);
    EXPECT_DOUBLE_EQ(timeline[i].mean_latency_ms, 0.0);
  }
  EXPECT_DOUBLE_EQ(timeline[3].tps, 2.0);
  EXPECT_DOUBLE_EQ(timeline[3].mean_latency_ms, 500.0);
}

TEST(MetricsTest, TimelineBucketBoundaryCommit) {
  MetricsCollector metrics(0, 10 * kSecond, kSecond);
  // A commit exactly on a bucket boundary lands in the later bucket.
  metrics.RecordCommit(0, kSecond, 1);
  auto timeline = metrics.Timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].tps, 0.0);
  EXPECT_DOUBLE_EQ(timeline[1].tps, 1.0);
}

}  // namespace
}  // namespace massbft
