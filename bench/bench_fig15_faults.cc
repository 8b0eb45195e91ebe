// Reproduces paper Figure 15: MassBFT under failures, as a timeline.
//   t = 20 s: two Byzantine nodes per group start colluding — they encode
//             a tampered entry into chunks and broadcast tampered chunks
//             locally. Expected: throughput unchanged (correct nodes
//             bucket by Merkle root, ban the fake chunk ids, rebuild from
//             correct chunks), latency up by a few milliseconds.
//   t = 40 s: group G0 crashes. Expected: throughput dips and latency
//             spikes while ordering waits on the dead group's timestamps;
//             after the takeover timeout another group freezes G0's clock
//             and assigns it, restoring progress at ~2/3 throughput (the
//             dead group's clients are gone).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"

using namespace massbft;
using namespace massbft::bench;

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  std::printf("=== Fig 15: fault timeline (Byzantine @20s, group crash "
              "@40s) ===\n");

  double scale = opts.fast ? 0.25 : 1.0;  // Timeline length multiplier.
  ExperimentConfig config;
  config.topology = TopologyConfig::Nationwide(3, 7);
  config.protocol = ProtocolConfig::MassBft();
  config.protocol.pipeline_depth = 8;
  config.protocol.group_crash_timeout = SecondsToSim(2 * scale);
  config.workload = WorkloadKind::kYcsbA;
  config.clients_per_group = 1000;
  config.duration = SecondsToSim(60 * scale);
  config.warmup = SecondsToSim(2 * scale);
  config.faults.byzantine_per_group = 2;
  config.faults.byzantine_from = SecondsToSim(20 * scale);
  config.faults.crash = config.topology.GroupNodes(0);
  config.faults.crash_at = SecondsToSim(40 * scale);

  Experiment experiment(config);
  Status status = experiment.Setup();
  MASSBFT_CHECK(status.ok());
  ExperimentResult result = experiment.Run();

  TablePrinter table({"t_s", "ktps", "latency_ms", "phase"}, opts.csv);
  for (const auto& point : result.timeline) {
    const char* phase = "normal";
    if (point.time_s >= 40 * scale)
      phase = "group_0_crashed";
    else if (point.time_s >= 20 * scale)
      phase = "byzantine_active";
    table.Row({TablePrinter::Num(point.time_s, 0),
               TablePrinter::Num(point.tps / 1000.0),
               TablePrinter::Num(point.mean_latency_ms), phase});
  }

  int64_t agreement = experiment.CheckAgreement();
  std::printf("\nagreement across surviving nodes: %s (%lld entries)\n",
              agreement >= 0 ? "OK" : "DIVERGED",
              static_cast<long long>(agreement));
  ExitIfStalled(result);
  return agreement >= 0 ? 0 : 1;
}
