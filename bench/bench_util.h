#ifndef MASSBFT_BENCH_BENCH_UTIL_H_
#define MASSBFT_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "core/config.h"
#include "core/experiment.h"

namespace massbft {
namespace bench {

/// Shared experiment-driver helpers for the figure-reproduction benches.
/// Each bench binary prints the paper's series as an aligned text table;
/// pass --csv for machine-readable output. The default runs are short
/// (whole suite in minutes); pass --full for longer, denser sweeps with
/// less noise.
struct BenchOptions {
  bool csv = false;
  bool fast = true;  // Cleared by --full.
  /// --trace=FILE: record protocol traces and write a Chrome trace-event
  /// JSON file (chrome://tracing / Perfetto). With several runs in one
  /// bench, the last run's trace wins.
  std::string trace_file;
  /// --json[=FILE]: append each run's result + metrics registry to a JSON
  /// array file (default bench_results.json), rewritten after every run.
  std::string json_file;
  /// --repeat=N: run each experiment N times and report the wall-clock
  /// fields (wall_ms, events_per_sec, sim_time_ratio) as mean +- stdev
  /// across repeats. Simulated results are seed-deterministic, so only the
  /// host-timing fields vary; the returned result carries the means.
  int repeat = 1;
  /// --baseline=FILE: after every run, rewrite FILE as a schema-versioned
  /// perf-baseline document (core/bench_baseline.h) for the last result —
  /// the same format as the checked-in BENCH_*.json trajectory files.
  std::string baseline_file;
  /// Bench name stamped into baseline documents (basename of argv[0]).
  std::string bench_name;

  static BenchOptions Parse(int argc, char** argv);
};

/// The options from the latest Parse() call (RunOnce consults these so
/// every bench gets --trace/--json without plumbing).
const BenchOptions& GlobalOptions();

/// Duration/warmup presets scaled by --fast.
SimTime RunDuration(const BenchOptions& opts);
SimTime WarmupDuration(const BenchOptions& opts);

/// Measured operating point of one protocol configuration.
struct OperatingPoint {
  double throughput_tps = 0;   // Peak over the client ladder.
  double latency_ms = 0;       // Mean latency at light load (see FindKnee).
  double p99_latency_ms = 0;   // p99 at light load.
  int clients_per_group = 0;   // Client count that produced the peak.
  ExperimentResult result;     // Full result at the peak.
};

/// Runs one experiment config and returns its result (dies on setup
/// errors — bench configs are static — and, through ExitIfStalled, on a
/// run that left transactions uncommitted).
ExperimentResult RunOnce(ExperimentConfig config);

/// The liveness oracle every figure bench applies: when `result.failed`
/// is non-zero, reports it and exits the process with status 1.
void ExitIfStalled(const ExperimentResult& result);

/// Paper-style "throughput and latency" measurement: peak throughput is
/// the maximum over a closed-loop client ladder; latency is measured in a
/// separate light-load run (kLatencyProbeClients per group), reflecting
/// the protocol's intrinsic commit path rather than overload queueing.
constexpr int kLatencyProbeClients = 150;
OperatingPoint FindKnee(ExperimentConfig base,
                        const std::vector<int>& client_ladder);

/// The default client ladder (geometric).
std::vector<int> DefaultLadder(const BenchOptions& opts);

/// Formatted output: aligned table or CSV rows.
class TablePrinter {
 public:
  TablePrinter(std::vector<std::string> columns, bool csv);

  void Row(const std::vector<std::string>& cells);
  static std::string Num(double v, int decimals = 1);

 private:
  std::vector<std::string> columns_;
  std::vector<size_t> widths_;
  bool csv_;
  bool header_printed_ = false;
  void PrintHeader();
};

}  // namespace bench
}  // namespace massbft

#endif  // MASSBFT_BENCH_BENCH_UTIL_H_
