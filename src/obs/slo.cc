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

double EstimateBadFraction(const LatencySummary& summary,
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

std::vector<SloStatus> EvaluateSlos(const std::vector<SloSpec>& specs,
                                    const MetricsSnapshot& snapshot) {
  std::vector<SloStatus> out;
  out.reserve(specs.size());
  for (const SloSpec& spec : specs) {
    double bad = 0;
    double total = 0;
    if (spec.kind == SloSpec::Kind::kLatencyP99) {
      if (const LatencySummary* s = FindHistogram(snapshot, spec.histogram)) {
        total = static_cast<double>(s->count);
        bad = total * EstimateBadFraction(*s, spec.threshold_us);
      }
    } else {
      for (const std::string& name : spec.bad_counters) {
        bad += static_cast<double>(snapshot.counter_or(name));
      }
      for (const std::string& name : spec.total_counters) {
        total += static_cast<double>(snapshot.counter_or(name));
      }
    }
    SloStatus& st = out.emplace_back();
    st.name = spec.name;
    st.budget = spec.budget;
    st.bad_fraction = total > 0 ? bad / total : 0.0;
    st.burn = spec.budget > 0 ? st.bad_fraction / spec.budget : 0.0;
  }
  return out;
}

}  // namespace hbtree::obs
