#include "obs/slo.h"

#include <algorithm>

namespace hbtree::obs {

namespace {

const LatencySummary* FindHistogram(const MetricsSnapshot& snapshot,
                                    const std::string& name) {
  for (const auto& [key, summary] : snapshot.histograms) {
    if (key == name) return &summary;
  }
  return nullptr;
}

}  // namespace

double SloTracker::EstimateBadFraction(const LatencySummary& summary,
                                       double threshold_us) {
  if (summary.count == 0) return 0;
  if (threshold_us >= summary.max_us) return 0;
  // Known (latency, quantile) points of the summary. Percentiles are
  // clamped to max on the way out of the histogram, so the sequence is
  // non-decreasing.
  const std::pair<double, double> points[] = {
      {summary.p50_us, 0.50},
      {summary.p90_us, 0.90},
      {summary.p99_us, 0.99},
      {summary.max_us, 1.00},
  };
  if (threshold_us < points[0].first) return 1.0 - 0.50;
  double quantile = 1.0;
  for (int i = 0; i + 1 < 4; ++i) {
    const auto [lo_lat, lo_q] = points[i];
    const auto [hi_lat, hi_q] = points[i + 1];
    if (threshold_us > hi_lat) continue;
    quantile = hi_lat > lo_lat
                   ? lo_q + (hi_q - lo_q) * (threshold_us - lo_lat) /
                                (hi_lat - lo_lat)
                   : hi_q;
    break;
  }
  return std::max(0.0, 1.0 - quantile);
}

void SloTracker::AddTarget(const SloSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  Target t;
  t.spec = spec;
  t.status.name = spec.name;
  t.status.budget = spec.budget;
  targets_.push_back(std::move(t));
}

void SloTracker::Observe(const MetricsSnapshot& window) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Target& t : targets_) {
    double bad = 0;
    double total = 0;
    if (t.spec.kind == SloSpec::Kind::kLatencyP99) {
      if (const LatencySummary* s = FindHistogram(window, t.spec.histogram)) {
        total = static_cast<double>(s->count);
        bad = total * EstimateBadFraction(*s, t.spec.threshold_us);
      }
    } else {
      for (const std::string& name : t.spec.bad_counters) {
        bad += static_cast<double>(window.counter_or(name));
      }
      for (const std::string& name : t.spec.total_counters) {
        total += static_cast<double>(window.counter_or(name));
      }
    }
    t.bad += bad;
    t.total += total;

    SloStatus& st = t.status;
    st.bad_fraction = t.total > 0 ? t.bad / t.total : 0.0;
    st.burn = t.spec.budget > 0 ? st.bad_fraction / t.spec.budget : 0.0;

    if (registry_ != nullptr) {
      registry_->gauge("slo." + t.spec.name + ".bad_fraction")
          .Set(st.bad_fraction);
      registry_->gauge("slo." + t.spec.name + ".burn").Set(st.burn);
    }
  }
}

std::vector<SloStatus> SloTracker::Status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SloStatus> out;
  out.reserve(targets_.size());
  for (const Target& t : targets_) out.push_back(t.status);
  return out;
}

}  // namespace hbtree::obs
