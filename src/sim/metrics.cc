#include "sim/metrics.h"

#include <algorithm>
#include <cmath>

namespace massbft {

void LatencyStats::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyStats::MeanMs() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (SimTime s : samples_) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples_.size()) /
         static_cast<double>(kMillisecond);
}

double LatencyStats::PercentileMs(double p) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  return InterpolatedPercentile(samples_, p) /
         static_cast<double>(kMillisecond);
}

void LatencyStats::Merge(const LatencyStats& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

void MetricsCollector::RecordCommit(SimTime submit_time, SimTime commit_time,
                                    int txns) {
  SimTime latency = commit_time - submit_time;
  size_t bucket_index = static_cast<size_t>(commit_time / bucket_);
  if (bucket_index >= timeline_.size()) timeline_.resize(bucket_index + 1);
  timeline_[bucket_index].txns += txns;
  timeline_[bucket_index].latency_sum += latency * txns;

  if (commit_time < warmup_ || commit_time > horizon_) return;
  committed_ += txns;
  for (int i = 0; i < txns; ++i) latency_.Record(latency);
}

void MetricsCollector::Merge(const MetricsCollector& other) {
  if (other.timeline_.size() > timeline_.size())
    timeline_.resize(other.timeline_.size());
  for (size_t i = 0; i < other.timeline_.size(); ++i) {
    timeline_[i].txns += other.timeline_[i].txns;
    timeline_[i].latency_sum += other.timeline_[i].latency_sum;
  }
  committed_ += other.committed_;
  latency_.Merge(other.latency_);
}

double MetricsCollector::ThroughputTps() const {
  double window_s = SimToSeconds(horizon_ - warmup_);
  if (window_s <= 0) return 0.0;
  return static_cast<double>(committed_) / window_s;
}

std::vector<MetricsCollector::TimelinePoint> MetricsCollector::Timeline()
    const {
  std::vector<TimelinePoint> points;
  points.reserve(timeline_.size());
  double bucket_s = SimToSeconds(bucket_);
  for (size_t i = 0; i < timeline_.size(); ++i) {
    const Bucket& b = timeline_[i];
    TimelinePoint p;
    p.time_s = static_cast<double>(i) * bucket_s;
    p.tps = static_cast<double>(b.txns) / bucket_s;
    p.mean_latency_ms =
        b.txns == 0 ? 0.0
                    : static_cast<double>(b.latency_sum) /
                          static_cast<double>(b.txns) /
                          static_cast<double>(kMillisecond);
    points.push_back(p);
  }
  return points;
}

}  // namespace massbft
