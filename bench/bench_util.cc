#include "bench/bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "core/bench_baseline.h"
#include "obs/json_writer.h"

namespace massbft {
namespace bench {

namespace {
BenchOptions g_options;
/// JSON objects of every run so far (--json rewrites the file per run, so
/// a killed bench still leaves a valid array behind).
std::vector<std::string> g_json_runs;
}  // namespace

const BenchOptions& GlobalOptions() { return g_options; }

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  BenchOptions opts;
  if (argc > 0 && argv[0] != nullptr) {
    std::string program = argv[0];
    size_t slash = program.find_last_of('/');
    opts.bench_name =
        slash == std::string::npos ? program : program.substr(slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) opts.csv = true;
    if (std::strcmp(argv[i], "--fast") == 0) opts.fast = true;
    if (std::strcmp(argv[i], "--full") == 0) opts.fast = false;
    if (std::strncmp(argv[i], "--trace=", 8) == 0) opts.trace_file = argv[i] + 8;
    if (std::strcmp(argv[i], "--json") == 0) opts.json_file = "bench_results.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) opts.json_file = argv[i] + 7;
    if (std::strncmp(argv[i], "--baseline=", 11) == 0)
      opts.baseline_file = argv[i] + 11;
    if (std::strncmp(argv[i], "--repeat=", 9) == 0)
      opts.repeat = std::max(1, std::atoi(argv[i] + 9));
  }
  g_options = opts;
  g_json_runs.clear();
  return opts;
}

SimTime RunDuration(const BenchOptions& opts) {
  return opts.fast ? 3 * kSecond : 6 * kSecond;
}
SimTime WarmupDuration(const BenchOptions& opts) {
  return opts.fast ? 1 * kSecond : 2 * kSecond;
}

namespace {

/// Mean and (sample) standard deviation of one wall-clock field.
struct RepeatStat {
  double mean = 0;
  double stdev = 0;
};

RepeatStat StatOf(const std::vector<double>& samples) {
  RepeatStat stat;
  if (samples.empty()) return stat;
  double sum = 0;
  for (double s : samples) sum += s;
  stat.mean = sum / static_cast<double>(samples.size());
  if (samples.size() > 1) {
    double sq = 0;
    for (double s : samples) sq += (s - stat.mean) * (s - stat.mean);
    stat.stdev = std::sqrt(sq / static_cast<double>(samples.size() - 1));
  }
  return stat;
}

}  // namespace

ExperimentResult RunOnce(ExperimentConfig config) {
  if (!g_options.trace_file.empty()) config.enable_tracing = true;
  ExperimentConfig repeat_config = config;  // For --repeat re-runs.
  Experiment experiment(std::move(config));
  Status status = experiment.Setup();
  MASSBFT_CHECK(status.ok());
  ExperimentResult result = experiment.Run();

  // --repeat=N: re-run the identical (seed-deterministic) experiment and
  // fold the host-timing samples into mean +- stdev. The protocol-level
  // fields of every repeat match the first run, so only the wall-clock
  // fields are aggregated.
  if (g_options.repeat > 1) {
    std::vector<double> wall_ms{result.wall_ms};
    std::vector<double> eps{result.events_per_sec};
    std::vector<double> ratio{result.sim_time_ratio};
    for (int r = 1; r < g_options.repeat; ++r) {
      Experiment again(repeat_config);
      MASSBFT_CHECK(again.Setup().ok());
      ExperimentResult repeat_result = again.Run();
      wall_ms.push_back(repeat_result.wall_ms);
      eps.push_back(repeat_result.events_per_sec);
      ratio.push_back(repeat_result.sim_time_ratio);
    }
    RepeatStat wall_stat = StatOf(wall_ms);
    RepeatStat eps_stat = StatOf(eps);
    RepeatStat ratio_stat = StatOf(ratio);
    result.wall_ms = wall_stat.mean;
    result.events_per_sec = eps_stat.mean;
    result.sim_time_ratio = ratio_stat.mean;
    std::fprintf(stderr,
                 "[repeat x%d] wall_ms %.1f +- %.1f | events/sec %.0f +- "
                 "%.0f | sim_time_ratio %.2f +- %.2f\n",
                 g_options.repeat, wall_stat.mean, wall_stat.stdev,
                 eps_stat.mean, eps_stat.stdev, ratio_stat.mean,
                 ratio_stat.stdev);
  }

  if (!g_options.trace_file.empty()) {
    Status written = experiment.WriteTrace(g_options.trace_file);
    if (!written.ok()) {
      MASSBFT_LOG(kWarn) << "trace export failed: " << written.ToString();
    }
  }
  if (!g_options.baseline_file.empty()) {
    // Rewritten per run: the file always holds the latest completed run's
    // baseline even if the bench is interrupted mid-sweep.
    Status written = WriteBenchBaselineFile(
        g_options.baseline_file,
        g_options.bench_name.empty() ? "bench" : g_options.bench_name, result);
    if (!written.ok()) {
      MASSBFT_LOG(kWarn) << "baseline export failed: " << written.ToString();
    }
  }
  if (!g_options.json_file.empty()) {
    std::ostringstream metrics_json;
    obs::JsonWriter metrics_writer(metrics_json);
    experiment.telemetry().registry().WriteJson(metrics_writer);
    g_json_runs.push_back("{\"result\":" + result.ToJson() +
                          ",\"metrics\":" + metrics_json.str() + "}");
    std::ofstream out(g_options.json_file, std::ios::trunc);
    out << "[\n";
    for (size_t i = 0; i < g_json_runs.size(); ++i)
      out << g_json_runs[i] << (i + 1 < g_json_runs.size() ? ",\n" : "\n");
    out << "]\n";
  }
  ExitIfStalled(result);
  return result;
}

void ExitIfStalled(const ExperimentResult& result) {
  if (result.failed == 0) return;
  std::fflush(stdout);
  std::fprintf(stderr,
               "liveness oracle: %llu submitted transactions never "
               "committed\n",
               static_cast<unsigned long long>(result.failed));
  std::exit(1);
}

OperatingPoint FindKnee(ExperimentConfig base,
                        const std::vector<int>& client_ladder) {
  OperatingPoint point;
  for (int clients : client_ladder) {
    ExperimentConfig config = base;
    config.clients_per_group = clients;
    ExperimentResult result = RunOnce(std::move(config));
    if (result.throughput_tps > point.throughput_tps) {
      point.throughput_tps = result.throughput_tps;
      point.clients_per_group = clients;
      point.result = result;
    }
  }
  // Light-load probe for the intrinsic commit latency.
  ExperimentConfig light = base;
  light.clients_per_group = kLatencyProbeClients;
  ExperimentResult light_result = RunOnce(std::move(light));
  point.latency_ms = light_result.mean_latency_ms;
  point.p99_latency_ms = light_result.p99_latency_ms;
  return point;
}

std::vector<int> DefaultLadder(const BenchOptions& opts) {
  if (opts.fast) return {500, 2000, 8000};
  return {250, 1000, 4000, 12000};
}

TablePrinter::TablePrinter(std::vector<std::string> columns, bool csv)
    : columns_(std::move(columns)), csv_(csv) {
  widths_.reserve(columns_.size());
  for (const std::string& c : columns_)
    widths_.push_back(std::max<size_t>(c.size() + 2, 14));
}

void TablePrinter::PrintHeader() {
  if (header_printed_) return;
  header_printed_ = true;
  if (csv_) {
    for (size_t i = 0; i < columns_.size(); ++i)
      std::printf("%s%s", columns_[i].c_str(),
                  i + 1 < columns_.size() ? "," : "\n");
    return;
  }
  for (size_t i = 0; i < columns_.size(); ++i)
    std::printf("%-*s", static_cast<int>(widths_[i]), columns_[i].c_str());
  std::printf("\n");
  size_t total = 0;
  for (size_t w : widths_) total += w;
  for (size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

void TablePrinter::Row(const std::vector<std::string>& cells) {
  PrintHeader();
  if (csv_) {
    for (size_t i = 0; i < cells.size(); ++i)
      std::printf("%s%s", cells[i].c_str(), i + 1 < cells.size() ? "," : "\n");
    return;
  }
  for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
    size_t width = std::max(widths_[i], cells[i].size() + 2);
    std::printf("%-*s", static_cast<int>(width), cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string TablePrinter::Num(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace bench
}  // namespace massbft
