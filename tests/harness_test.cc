// Tests for the parts the simulated (Experiment) and the threaded
// (RealCluster) harness share: the closed-loop client table, the agreement
// oracle and the telemetry half of the result.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/client_table.h"
#include "core/experiment.h"
#include "obs/telemetry.h"
#include "workload/workload.h"

namespace massbft {
namespace {

ExecutionLog Log(std::initializer_list<std::pair<uint16_t, uint64_t>> keys) {
  return ExecutionLog(keys);
}

TEST(AgreementOracleTest, LongerLogsDivergingPastTheFirstNodeAreCaught) {
  // Node 0 is the shortest; the two longer logs agree with it but not
  // with each other past its end. Checking each log against node 0 alone
  // would miss this.
  const ExecutionLog a = Log({{0, 0}, {1, 0}});
  const ExecutionLog b = Log({{0, 0}, {1, 0}, {2, 0}, {0, 1}});
  const ExecutionLog c = Log({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(CommonPrefixLength({{a}, {b}, {c}}), -1);
}

TEST(AgreementOracleTest, IdenticalLogsOfDifferentLengthsGiveTheShortest) {
  const ExecutionLog a = Log({{0, 0}, {1, 0}, {2, 0}});
  const ExecutionLog b = Log({{0, 0}});
  const ExecutionLog c = Log({{0, 0}, {1, 0}});
  EXPECT_EQ(CommonPrefixLength({{a}, {b}, {c}}), 1);
  EXPECT_EQ(CommonPrefixLength({{a}}), 3);
}

TEST(AgreementOracleTest, DivergenceInsideTheCommonPrefixIsCaught) {
  const ExecutionLog a = Log({{0, 0}, {1, 0}, {2, 0}});
  const ExecutionLog b = Log({{1, 0}, {0, 0}, {2, 0}});
  EXPECT_EQ(CommonPrefixLength({{a}, {b}}), -1);
}

TEST(AgreementOracleTest, EqualLogsWithDifferentStatesAreCaught) {
  // Execution is deterministic: two replicas that executed the same log
  // must hold the same state. Replicas with different log lengths may
  // differ (the shorter one has not executed the tail yet).
  const ExecutionLog a = Log({{0, 0}, {1, 0}});
  const ExecutionLog b = Log({{0, 0}, {1, 0}});
  const ExecutionLog c = Log({{0, 0}});
  EXPECT_EQ(CommonPrefixLength({{a, 7}, {b, 8}}), -1);
  EXPECT_EQ(CommonPrefixLength({{a, 7}, {b, 7}, {c, 9}}), 1);
}

TEST(AgreementOracleTest, NoEligibleNodeGivesZero) {
  EXPECT_EQ(CommonPrefixLength({}), 0);
}

TEST(ClientTableTest, IdsAreUniqueAndRoundTripToTheirIndex) {
  Rng seed_rng(7);
  ClientTable table(seed_rng, /*groups=*/3, /*clients_per_group=*/5);
  ASSERT_EQ(table.size(), 15u);
  std::set<uint32_t> ids;
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_TRUE(ids.insert(table.client(i).id).second);
    EXPECT_EQ(table.IndexOf(table.client(i).id), i);
    EXPECT_EQ(table.client(i).group, static_cast<int>(i / 5));
  }
  // An id outside the table maps to size().
  EXPECT_EQ(table.IndexOf((3u << 20) | 0), table.size());
  EXPECT_EQ(table.IndexOf((0u << 20) | 5), table.size());
}

TEST(ClientTableTest, TransactionIdsAreUniqueAcrossClients) {
  Rng seed_rng(7);
  ClientTable table(seed_rng, /*groups=*/2, /*clients_per_group=*/3);
  std::unique_ptr<Workload> workload = MakeWorkload(WorkloadKind::kYcsbA, 0.01);
  std::set<uint64_t> txn_ids;
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < table.size(); ++i) {
      const Transaction txn = table.NextTxn(i, *workload, 100 * round);
      EXPECT_TRUE(txn_ids.insert(txn.id).second);
      EXPECT_EQ(txn.client, table.client(i).id);
      EXPECT_EQ(txn.submit_time, 100 * round);
      EXPECT_EQ(table.IndexOf(txn.client), i);
      EXPECT_FALSE(txn.payload.empty());
    }
  }
}

TEST(ClientTableTest, OutstandingClearsOnlyOnTheMatchingCommit) {
  // The liveness oracle: a commit resumes its client only if it is the
  // client's outstanding transaction, and a crashed leader's clients are
  // lost rather than stalled.
  Rng seed_rng(7);
  ClientTable table(seed_rng, /*groups=*/2, /*clients_per_group=*/2);
  std::unique_ptr<Workload> workload = MakeWorkload(WorkloadKind::kYcsbA, 0.01);
  const Transaction stale = table.NextTxn(0, *workload, 0);
  const Transaction current = table.NextTxn(0, *workload, 1);
  table.NextTxn(2, *workload, 0);
  EXPECT_EQ(table.Outstanding(), 2u);
  EXPECT_EQ(table.Commit(stale), table.size());
  EXPECT_EQ(table.Outstanding(0), 1u);
  EXPECT_EQ(table.Commit(current), 0u);
  EXPECT_EQ(table.Outstanding(0), 0u);
  table.MarkLost(1);
  EXPECT_EQ(table.Outstanding(), 0u);
}

TEST(ResultAssemblyTest, AbortsCountedFromTelemetry) {
  obs::Telemetry telemetry;
  telemetry.registry().GetCounter("exec/logic_aborts")->Add(3);
  ExperimentResult result;
  AddTelemetry(telemetry, &result);
  EXPECT_EQ(result.aborted_txns, 3u);
}

TEST(ResultAssemblyTest, SumsPhasesAndCountersAcrossNodes) {
  // Two nodes' telemetry added one after the other give the same result
  // as one telemetry holding both nodes' samples (the simulator's case).
  obs::Telemetry node_a, node_b, shared;
  for (obs::Telemetry* t : {&node_a, &shared}) {
    t->phase_histogram(obs::Phase::kBatching)->Record(2.0);
    t->phase_histogram(obs::Phase::kBatching)->Record(4.0);
    t->phase_histogram(obs::Phase::kLocalConsensus)->Record(5.0);
    t->registry().GetCounter("node/entries_batched")->Add(1);
    t->registry().GetCounter("exec/txns_executed")->Add(2);
  }
  for (obs::Telemetry* t : {&node_b, &shared}) {
    t->phase_histogram(obs::Phase::kBatching)->Record(6.0);
    t->phase_histogram(obs::Phase::kRebuild)->Record(1.0);
    t->registry().GetCounter("node/entries_batched")->Add(1);
    t->registry().GetCounter("exec/conflict_aborts")->Add(1);
  }
  ExperimentResult per_node, one;
  AddTelemetry(node_a, &per_node);
  AddTelemetry(node_b, &per_node);
  AddTelemetry(shared, &one);
  EXPECT_EQ(per_node.ToJson(), one.ToJson());
  EXPECT_EQ(per_node.entries_proposed, 2u);
  EXPECT_EQ(per_node.phases.entries, 2u);
  EXPECT_EQ(per_node.phases.txns, 2u);
  EXPECT_EQ(per_node.phases.rebuilds, 1u);
  EXPECT_EQ(per_node.conflict_aborts, 1u);
  EXPECT_DOUBLE_EQ(per_node.phases.batching_ms, 12.0);
  EXPECT_DOUBLE_EQ(per_node.avg_batch_size, 1.5);
}

}  // namespace
}  // namespace massbft
