// Reproduces paper Figure 12: heterogeneous group sizes (G1 = 4 nodes,
// G2 = G3 = 7 nodes) comparing Baseline, BR (bijective-only replication),
// EBR (encoded bijective, round ordering) and EBR+A (MassBFT: encoded
// bijective + asynchronous VTS ordering).
//
// Expected shape: Baseline lowest; BR higher but every group pinned to the
// same rate; EBR higher still but the big groups remain chained to slow G1
// by round ordering; EBR+A (MassBFT) highest, with the 7-node groups
// proposing at their own faster pace (per-group breakdown shows the skew).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"

using namespace massbft;
using namespace massbft::bench;

namespace {

struct GroupBreakdown {
  double total_ktps;
  double latency_ms;
  double per_group_ktps[3];
};

GroupBreakdown Run(ProtocolConfig protocol, const BenchOptions& opts) {
  ExperimentConfig config;
  config.topology = TopologyConfig::Nationwide(3, 7);
  config.topology.group_sizes = {4, 7, 7};
  config.protocol = std::move(protocol);
  config.protocol.pipeline_depth = 8;
  config.workload = WorkloadKind::kYcsbA;
  config.duration = RunDuration(opts);
  config.warmup = WarmupDuration(opts);
  // Saturating load (the regime the paper evaluates).
  config.clients_per_group = opts.fast ? 1500 : 3000;

  Experiment experiment(config);
  Status status = experiment.Setup();
  MASSBFT_CHECK(status.ok());
  // Per-group throughput from each group leader's own clock (committed own
  // entries) at the end of the measured run, before the liveness drain,
  // times the average batch size.
  uint64_t own_entries[3] = {};
  experiment.sim().ScheduleAt(config.duration, [&experiment, &own_entries] {
    for (int g = 0; g < 3; ++g)
      own_entries[g] =
          experiment.node(NodeId{static_cast<uint16_t>(g), 0})->own_clock();
  });
  ExperimentResult result = experiment.Run();
  ExitIfStalled(result);

  GroupBreakdown breakdown{};
  breakdown.total_ktps = result.throughput_tps / 1000.0;
  breakdown.latency_ms = result.mean_latency_ms;
  for (int g = 0; g < 3; ++g)
    breakdown.per_group_ktps[g] = static_cast<double>(own_entries[g]) *
                                  result.avg_batch_size /
                                  SimToSeconds(config.duration) / 1000.0;
  return breakdown;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  std::printf("=== Fig 12: heterogeneous groups (G1=4, G2=G3=7 nodes) ===\n");

  struct Variant {
    const char* name;
    ProtocolConfig config;
  };
  Variant variants[] = {
      {"Baseline", ProtocolConfig::Baseline()},
      {"BR", ProtocolConfig::Br()},
      {"EBR", ProtocolConfig::Ebr()},
      {"EBR+A (MassBFT)", ProtocolConfig::MassBft()},
  };

  TablePrinter table({"variant", "total_ktps", "latency_ms", "G1_ktps",
                      "G2_ktps", "G3_ktps"},
                     opts.csv);
  for (Variant& variant : variants) {
    GroupBreakdown b = Run(variant.config, opts);
    table.Row({variant.name, TablePrinter::Num(b.total_ktps),
               TablePrinter::Num(b.latency_ms),
               TablePrinter::Num(b.per_group_ktps[0]),
               TablePrinter::Num(b.per_group_ktps[1]),
               TablePrinter::Num(b.per_group_ktps[2])});
  }
  if (!opts.csv)
    std::printf("\n(per-group columns: entries proposed by that group x avg "
                "batch; under round ordering all groups are pinned to the "
                "same rate, under EBR+A the 7-node groups run ahead)\n");
  return 0;
}
