#ifndef MASSBFT_SIM_METRICS_H_
#define MASSBFT_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace massbft {

/// Linear-interpolated percentile over an ascending-sorted sample vector
/// (p in [0, 1]); the single implementation shared by LatencyStats (both
/// harnesses' commit latencies) and the benchmark driver. A
/// floor-truncated nearest-rank underreports upper percentiles on small
/// samples (p99 of 100 samples would return sorted[98]); interpolating
/// between the neighboring ranks does not. Returns 0 when empty.
template <typename T>
double InterpolatedPercentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

/// Latency sample accumulator with average/percentile reporting.
class LatencyStats {
 public:
  void Record(SimTime latency) {
    samples_.push_back(latency);
    // A percentile query may have sorted the vector already; appending
    // invalidates that order.
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  double MeanMs() const;
  /// p in [0, 1], e.g. 0.5 / 0.99. Returns 0 when empty.
  double PercentileMs(double p) const;

  void Clear() {
    samples_.clear();
    sorted_ = false;
  }
  /// Appends every sample of `other`.
  void Merge(const LatencyStats& other);

 private:
  mutable std::vector<SimTime> samples_;
  mutable bool sorted_ = false;
  void EnsureSorted() const;
};

/// Per-experiment throughput/latency collector. The harness reports each
/// committed transaction with its submit time; the collector provides
///   * overall throughput over a measurement window (warmup excluded),
///   * mean/percentile commit latency,
///   * a per-interval timeline for the fault-injection figure (Fig 15).
class MetricsCollector {
 public:
  /// Transactions committed before `warmup` or after `horizon` are excluded
  /// from throughput/latency aggregates (they still land in the timeline).
  MetricsCollector(SimTime warmup, SimTime horizon,
                   SimTime timeline_bucket = kSecond)
      : warmup_(warmup), horizon_(horizon), bucket_(timeline_bucket) {}

  void RecordCommit(SimTime submit_time, SimTime commit_time, int txns = 1);
  /// Folds `other`'s commits into this collector (same bucket width): the
  /// threaded harness keeps one collector per group leader and merges them
  /// once the leaders' threads are joined.
  void Merge(const MetricsCollector& other);

  uint64_t committed() const { return committed_; }

  /// Committed transactions per second within [warmup, horizon].
  double ThroughputTps() const;
  double MeanLatencyMs() const { return latency_.MeanMs(); }
  double P50LatencyMs() const { return latency_.PercentileMs(0.5); }
  double P99LatencyMs() const { return latency_.PercentileMs(0.99); }

  struct TimelinePoint {
    double time_s;
    double tps;
    double mean_latency_ms;
  };
  /// Per-bucket throughput/latency over the whole run.
  std::vector<TimelinePoint> Timeline() const;

 private:
  SimTime warmup_;
  SimTime horizon_;
  SimTime bucket_;
  uint64_t committed_ = 0;
  LatencyStats latency_;
  struct Bucket {
    uint64_t txns = 0;
    SimTime latency_sum = 0;
  };
  std::vector<Bucket> timeline_;
};

}  // namespace massbft

#endif  // MASSBFT_SIM_METRICS_H_
