// Real cluster: a 3-group x 4-node MassBFT cluster where every node runs
// on its own thread and all protocol messages cross an actual transport —
// the full wire codec either over an in-process fabric or over localhost
// TCP sockets. Drives YCSB-A closed-loop clients for a few seconds, drains,
// and verifies that every node executed the same entries and holds the
// same state fingerprint.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/real_cluster [--tcp] [--seconds N] [--clients N]
//                                 [--faults PRESET] [--crypto=SCHEME]
//                                 [--trace=FILE] [--stats-port=P]
//                                 [--bench-out=FILE]
//
// Crypto (DESIGN.md §17):
//   --crypto=SCHEME   ed25519 (default): real RFC 8032 signatures with
//                     batched certificate verification; hmac: the
//                     simulated-PKI stand-in the figure benches use.
//
// Observability (DESIGN.md §14):
//   --trace=FILE      merged cluster-wide Chrome trace (one process per
//                     node, cross-node flow arrows; open in Perfetto)
//   --stats-port=P    localhost stats server for the whole run: /metrics
//                     (Prometheus text) and /health (JSON). P=0 picks an
//                     ephemeral port (printed at startup).
//   --bench-out=FILE  schema-versioned perf-baseline JSON of the run
//                     (compare against the checked-in BENCH_real_cluster
//                     .json trajectory)
//
// Fault presets (paper Section VI-E style failure experiments; the crash
// presets are FaultPlans, the schedule the simulator runs):
//   none           no faults (default)
//   crash          crash one follower per group mid-run; they stay down
//   crash-restart  crash one follower per group, restart them later
//   partition      cut group 0 off for ~1/4 of the run, then heal
//   chaos          duplicate + delay frames on every link
//
// Exits non-zero if the per-preset commit floor is missed, any
// continuously-correct node's state diverges, or (except under the
// partition preset) a client's transaction never committed.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/bench_baseline.h"
#include "core/config.h"
#include "runtime/cluster.h"

using namespace massbft;

namespace {

/// Applies a named fault preset; returns the commit floor for it (faulty
/// runs lose part of the issue window, so they get a lower bar).
long ApplyFaultPreset(const std::string& preset, RealClusterConfig& config) {
  const double d = config.duration_seconds;
  // The highest-indexed follower of every group (f = 1 for 4-node groups).
  auto crash_one_follower_per_group = [&](double crash_at_s) {
    const std::vector<int>& sizes = config.topology.group_sizes;
    for (size_t g = 0; g < sizes.size(); ++g)
      config.faults.crash.push_back(NodeId{static_cast<uint16_t>(g),
                                           static_cast<uint16_t>(sizes[g] - 1)});
    config.faults.crash_at = SecondsToSim(crash_at_s);
  };
  if (preset == "none") return 1000;
  if (preset == "crash") {
    crash_one_follower_per_group(d * 0.3);
    return 500;
  }
  if (preset == "crash-restart") {
    crash_one_follower_per_group(d * 0.25);
    config.faults.recover_at = SecondsToSim(d * 0.6);
    return 500;
  }
  if (preset == "partition") {
    FaultSpec::Partition partition;
    partition.start_s = d * 0.3;
    partition.end_s = d * 0.55;
    partition.side_a = {0};
    config.net_faults.seed = config.seed;
    config.net_faults.partitions.push_back(partition);
    return 300;
  }
  if (preset == "chaos") {
    config.net_faults.seed = config.seed;
    config.net_faults.duplicate_rate = 0.05;
    config.net_faults.delay_rate = 0.05;
    config.net_faults.delay_min_ms = 1.0;
    config.net_faults.delay_max_ms = 10.0;
    return 500;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  RealClusterConfig config;
  config.topology = TopologyConfig::Nationwide(/*num_groups=*/3,
                                               /*nodes_per_group=*/4);
  config.protocol = ProtocolConfig::MassBft();
  config.workload = WorkloadKind::kYcsbA;
  config.workload_scale = 0.05;
  config.clients_per_group = 32;
  config.duration_seconds = 3.0;
  config.seed = 42;

  std::string preset = "none";
  std::string bench_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tcp") == 0) config.use_tcp = true;
    if (std::strncmp(argv[i], "--crypto=", 9) == 0) {
      const char* scheme = argv[i] + 9;
      if (std::strcmp(scheme, "ed25519") == 0) {
        config.crypto = CryptoScheme::kEd25519;
      } else if (std::strcmp(scheme, "hmac") == 0) {
        config.crypto = CryptoScheme::kSimulatedHmac;
      } else {
        std::fprintf(stderr,
                     "unknown --crypto scheme '%s' (want ed25519, hmac)\n",
                     scheme);
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc)
      config.duration_seconds = std::stod(argv[++i]);
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
      config.clients_per_group = std::stoi(argv[++i]);
    if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc)
      preset = argv[++i];
    if (std::strncmp(argv[i], "--trace=", 8) == 0)
      config.trace_path = argv[i] + 8;
    if (std::strncmp(argv[i], "--stats-port=", 13) == 0)
      config.stats_port = std::stoi(argv[i] + 13);
    if (std::strncmp(argv[i], "--bench-out=", 12) == 0)
      bench_out = argv[i] + 12;
  }

  // The preset's fault offsets scale with the (possibly overridden)
  // duration, so apply it after flag parsing.
  const long commit_floor = ApplyFaultPreset(preset, config);
  if (commit_floor < 0) {
    std::fprintf(stderr,
                 "unknown --faults preset '%s' (want none, crash, "
                 "crash-restart, partition, chaos)\n",
                 preset.c_str());
    return 2;
  }

  std::printf("transport: %s, faults: %s, crypto: %s\n",
              config.use_tcp ? "tcp" : "in-process", preset.c_str(),
              CryptoSchemeName(config.crypto));

  RealCluster cluster(config);
  Status setup = cluster.Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  if (config.stats_port >= 0) {
    std::printf("stats: http://127.0.0.1:%u/metrics and /health\n",
                static_cast<unsigned>(cluster.stats_port()));
    std::fflush(stdout);
  }
  auto result = cluster.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (!config.trace_path.empty())
    std::printf("merged trace written to %s\n", config.trace_path.c_str());
  if (!bench_out.empty()) {
    Status written =
        WriteBenchBaselineFile(bench_out, "real_cluster", *result);
    if (!written.ok()) {
      std::fprintf(stderr, "baseline export failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("perf baseline written to %s\n", bench_out.c_str());
  }

  std::printf("%s\n", result->ToJson().c_str());
  std::printf("committed=%llu throughput=%.0f tps mean=%.1fms p99=%.1fms\n",
              static_cast<unsigned long long>(result->committed_txns),
              result->throughput_tps, result->mean_latency_ms,
              result->p99_latency_ms);
  std::printf("nodes_killed=%d faults_injected=%llu reconnects=%llu "
              "backpressure_drops=%llu send_errors=%llu decode_errors=%llu\n",
              result->nodes_killed,
              static_cast<unsigned long long>(result->faults_injected),
              static_cast<unsigned long long>(result->net_reconnects),
              static_cast<unsigned long long>(
                  result->net_dropped_backpressure),
              static_cast<unsigned long long>(result->net_send_errors),
              static_cast<unsigned long long>(result->net_decode_errors));

  if (result->committed_txns < static_cast<uint64_t>(commit_floor)) {
    std::fprintf(stderr, "FAIL: committed %llu < %ld transactions\n",
                 static_cast<unsigned long long>(result->committed_txns),
                 commit_floor);
    return 1;
  }
  // The one preset allowed to stall: no frame dropped in the partition
  // window is ever resent, so cross-group ordering wedges after the heal
  // (ROADMAP, Fig 12 item, "repair pull").
  if (preset != "partition") bench::ExitIfStalled(*result);
  std::printf("PASS: all continuously-correct nodes agree on execution log "
              "and state fingerprint\n");
  return 0;
}
