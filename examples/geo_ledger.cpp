// geo_ledger: a geo-distributed permissioned-ledger scenario on MassBFT.
//
// Three data centers (Hong Kong / London / Silicon Valley, the paper's
// worldwide cluster) run a shared SmallBank-style ledger. Each region's
// clients bank against their local group; MassBFT replicates and orders
// everything into one globally-consistent ledger. The example then
// demonstrates the consistency guarantee directly: it replays the executed
// log and shows that every region's replica agrees on the final database
// state, and injects a whole-region outage mid-run to show the takeover
// path keeping the other regions live.
//
// Run: ./build/examples/geo_ledger

#include <cstdio>

#include "core/config.h"
#include "core/experiment.h"

using namespace massbft;

int main() {
  std::printf("geo_ledger: SmallBank over MassBFT on the worldwide "
              "topology\n\n");

  ExperimentConfig config;
  config.topology = TopologyConfig::Worldwide(/*num_groups=*/3,
                                              /*nodes_per_group=*/4);
  config.protocol = ProtocolConfig::MassBft();
  config.protocol.pipeline_depth = 8;
  config.protocol.group_crash_timeout = 2 * kSecond;
  config.workload = WorkloadKind::kSmallBank;
  config.workload_scale = 0.01;  // 10k accounts for a quick demo.
  config.clients_per_group = 200;
  config.duration = 12 * kSecond;
  config.warmup = 2 * kSecond;
  config.execute_on_all_nodes = true;  // Every replica maintains the ledger.

  // Region outage: Silicon Valley (group 2) goes dark at t = 6 s.
  config.faults.crash = config.topology.GroupNodes(2);
  config.faults.crash_at = 6 * kSecond;

  Experiment experiment(config);
  Status status = experiment.Setup();
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 1;
  }
  ExperimentResult result = experiment.Run();

  const char* regions[] = {"Hong Kong", "London", "Silicon Valley"};
  std::printf("regional banking for 12 s; Silicon Valley crashes at 6 s\n");
  std::printf("committed transfers : %llu (%.1f ktps)\n",
              static_cast<unsigned long long>(result.committed_txns),
              result.throughput_tps / 1000.0);
  std::printf("mean commit latency : %.0f ms (worldwide RTTs 156-206 ms)\n",
              result.mean_latency_ms);

  std::printf("\nthroughput timeline:\n");
  for (const auto& point : result.timeline)
    std::printf("  t=%4.0fs  %6.0f tps   %s\n", point.time_s, point.tps,
                point.time_s >= 6.0 ? "<- Silicon Valley down" : "");

  // Consistency: all surviving replicas executed the same log prefix and
  // hold identical ledgers.
  int64_t agreement = experiment.CheckAgreement();
  std::printf("\nledger agreement across surviving replicas: %s "
              "(%lld entries in the common prefix)\n",
              agreement >= 0 ? "CONSISTENT" : "DIVERGED",
              static_cast<long long>(agreement));
  for (int g = 0; g < 2; ++g) {
    const GroupNode* replica =
        experiment.node(NodeId{static_cast<uint16_t>(g), 1});
    std::printf("  %-14s replica: %llu entries executed, %zu accounts "
                "touched\n",
                regions[g],
                static_cast<unsigned long long>(replica->executed_entries()),
                replica->store().materialized_size());
  }
  return agreement >= 0 ? 0 : 1;
}
