#ifndef HBTREE_OBS_SLO_H_
#define HBTREE_OBS_SLO_H_

#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hbtree::obs {

/// One service-level objective over registry metrics.
///
/// Two kinds:
///  * kLatencyP99 — "p99 of histogram `histogram` ≤ threshold_us". The
///    bad fraction of a window is the estimated share of its samples
///    above the threshold (interpolated from the window's percentile
///    summary — the registry does not keep raw samples).
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

/// Burn-rate state of one SLO over everything observed so far.
struct SloStatus {
  std::string name;
  double budget = 0;
  double bad_fraction = 0;  // bad over total, all observed windows
  double burn = 0;          // bad_fraction / budget
  /// The error budget is being spent faster than tolerated.
  bool burning() const { return burn > 1.0; }
};

/// Burn-rate accounting fed from CollectWindow() deltas.
///
/// The owner calls Observe() with each windowed snapshot (the serving
/// layer does this once, at shutdown); the tracker keeps running bad and
/// total sums per target and publishes the result back into the
/// registry as gauges `slo.<name>.bad_fraction` / `.burn`, so they ride
/// every metrics export without extra plumbing. Thread-safe.
class SloTracker {
 public:
  /// `registry` may be null (no gauge publication; tests).
  explicit SloTracker(MetricsRegistry* registry) : registry_(registry) {}

  void AddTarget(const SloSpec& spec);

  /// Folds one windowed snapshot into every target. Snapshots must come
  /// from CollectWindow() (deltas); lifetime snapshots would double-count.
  void Observe(const MetricsSnapshot& window);

  std::vector<SloStatus> Status() const;

  /// Estimated fraction of a summarized window's samples above
  /// `threshold_us`, interpolated between the summary's percentile
  /// points. Exposed for tests.
  static double EstimateBadFraction(const LatencySummary& summary,
                                    double threshold_us);

 private:
  struct Target {
    SloSpec spec;
    // Weighted sample counts summed over every observed window.
    double bad = 0;
    double total = 0;
    SloStatus status;
  };

  MetricsRegistry* registry_;
  mutable std::mutex mutex_;
  std::vector<Target> targets_;
};

}  // namespace hbtree::obs

#endif  // HBTREE_OBS_SLO_H_
