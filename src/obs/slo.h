#ifndef HBTREE_OBS_SLO_H_
#define HBTREE_OBS_SLO_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hbtree::obs {

/// One service-level objective over registry metrics.
///
/// Two kinds:
///  * kLatencyP99 — "p99 of histogram `histogram` ≤ threshold_us". The
///    bad fraction is the estimated share of the histogram's samples
///    above the threshold (interpolated from its percentile summary —
///    the registry does not keep raw samples).
///  * kRatio — "sum(bad_counters) / sum(total_counters) ≤ budget", e.g.
///    shed requests over admitted requests.
///
/// `budget` is the tolerated bad fraction; burn rate is bad fraction
/// over budget, so burn 1.0 means exactly spending the error budget and
/// burn 2.0 means burning it twice as fast as tolerated.
struct SloSpec {
  enum class Kind { kLatencyP99, kRatio };

  std::string name;  // metric-safe label, e.g. "read_p99"
  Kind kind = Kind::kLatencyP99;

  // kLatencyP99
  std::string histogram;    // registry histogram the target reads
  double threshold_us = 0;  // latency target

  // kRatio
  std::vector<std::string> bad_counters;
  std::vector<std::string> total_counters;

  double budget = 0.01;  // tolerated bad fraction (1% by default)
};

/// Burn-rate state of one SLO over one snapshot.
struct SloStatus {
  std::string name;
  double budget = 0;
  double bad_fraction = 0;  // bad over total samples in the snapshot
  double burn = 0;          // bad_fraction / budget
  /// The error budget is being spent faster than tolerated.
  bool burning() const { return burn > 1.0; }
};

/// Evaluates every objective over `snapshot`, one status per spec in
/// order. The serving layer passes the lifetime snapshot
/// (MetricsRegistry::Collect) once, at shutdown, so each status covers
/// the whole run.
std::vector<SloStatus> EvaluateSlos(const std::vector<SloSpec>& specs,
                                    const MetricsSnapshot& snapshot);

/// Estimated fraction of a summarized histogram's samples above
/// `threshold_us`, interpolated between the summary's percentile points.
double EstimateBadFraction(const LatencySummary& summary,
                           double threshold_us);

}  // namespace hbtree::obs

#endif  // HBTREE_OBS_SLO_H_
