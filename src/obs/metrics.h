#ifndef HBTREE_OBS_METRICS_H_
#define HBTREE_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace hbtree::obs {

/// Monotonic counter. Updates are single relaxed fetch_adds — exactly the
/// cost of the raw std::atomic members the serving layer used before the
/// registry existed, so migrating a counter onto the registry does not
/// slow the hot path.
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
  std::uint64_t window_base_ = 0;  // guarded by the registry window mutex
};

/// Last-write-wins gauge (a sampled level, not a rate): occupancy, queue
/// depth, device memory in use. Stored as the bit pattern of a double so
/// the update stays a single lock-free relaxed store.
class Gauge {
 public:
  void Set(double value) {
    bits_.store(std::bit_cast<std::uint64_t>(value),
                std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Histogram metric: a windowed (interval) log-scaled histogram plus a
/// lifetime accumulator. Record() lands in the active interval; a window
/// roll summarizes the interval, folds it into the lifetime histogram and
/// resets the interval — so windowed percentile summaries are exact (every
/// sample contributes to exactly one window, modulo samples racing the
/// roll itself).
class Histogram {
 public:
  void Record(std::uint64_t ns) { active_.Record(ns); }

  /// Record() plus tail-exemplar capture (see
  /// LatencyHistogram::RecordWithExemplar). Exemplars ride the interval
  /// histogram and fold into the lifetime reservoir at window rolls, so
  /// both windowed and lifetime summaries carry them.
  void RecordWithExemplar(std::uint64_t ns, const Exemplar& exemplar) {
    active_.RecordWithExemplar(ns, exemplar);
  }

  /// Lifetime summary: everything ever recorded (folded windows plus the
  /// current interval).
  LatencySummary LifetimeSummary() const {
    LatencyHistogram merged;
    merged.MergeFrom(lifetime_);
    merged.MergeFrom(active_);
    return merged.Summarize();
  }

  /// Summarizes the current interval, folds it into the lifetime
  /// accumulator and starts a fresh interval. Callers serialize rolls
  /// (the registry rolls under its window mutex). The fresh interval's
  /// exemplar threshold is the trailing p99 of the window just
  /// summarized: samples below it stop competing for reservoir slots.
  /// Until the first roll every sample competes — the bounded
  /// reservoir's prefer-higher-buckets eviction keeps that cheap.
  LatencySummary RollWindow() {
    const LatencySummary summary = active_.Summarize();
    lifetime_.MergeFrom(active_);
    active_.Reset();
    if (summary.count > 0) {
      active_.SetExemplarThresholdNs(
          static_cast<std::uint64_t>(summary.p99_us * 1e3));
    }
    return summary;
  }

  std::uint64_t count() const { return active_.count() + lifetime_.count(); }

 private:
  LatencyHistogram active_;
  LatencyHistogram lifetime_;
};

/// One collected view of a registry: either lifetime totals or the delta
/// since the previous window collection.
struct MetricsSnapshot {
  bool windowed = false;
  double window_seconds = 0;  // elapsed covered by this snapshot
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, LatencySummary>> histograms;

  /// Finds a counter by exact name; 0 when absent.
  std::uint64_t counter_or(const std::string& name,
                           std::uint64_t fallback = 0) const;
};

/// Registry of named counters/gauges/histograms.
///
/// Registration (the name → metric lookup) takes a mutex and is meant for
/// setup paths; hot paths capture the returned reference once and then
/// update it lock-free. Metric references stay valid for the registry's
/// lifetime — metrics are never removed.
///
/// Naming convention (see DESIGN.md §8): dotted lowercase
/// `<subsystem>.<what>[_<unit>]`, e.g. `serve.shed_reads`,
/// `gpusim.bytes_h2d`, `serve.read_latency` (histograms record ns).
class MetricsRegistry {
 public:
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Lifetime totals of every registered metric.
  MetricsSnapshot Collect() const;

  /// Interval snapshot: counter deltas and exact histogram interval
  /// summaries since the previous CollectWindow() (or since construction
  /// for the first call). Gauges report their current value — a level has
  /// no meaningful delta.
  MetricsSnapshot CollectWindow();

  /// Process-wide registry for call sites without a natural owner (bench
  /// mains, ad-hoc device instances).
  static MetricsRegistry& Default();

  /// Canonical per-instance label for sharded subsystems:
  /// `<subsystem>.shard<N>.<what>`, e.g. `serve.shard2.read_buckets`.
  /// Dashboards can aggregate across shards with a `<subsystem>.shard*`
  /// prefix match while the unsharded `<subsystem>.<what>` name keeps the
  /// global total.
  static std::string ShardedName(const std::string& subsystem, int shard,
                                 const std::string& what) {
    return subsystem + ".shard" + std::to_string(shard) + "." + what;
  }

  /// Canonical per-tenant label for multi-tenant subsystems:
  /// `<subsystem>.tenant<T>.<what>`, e.g. `serve.tenant0.read_latency`.
  /// Same aggregation convention as ShardedName: prefix-match
  /// `<subsystem>.tenant*` for a per-tenant breakdown, use the flat
  /// `<subsystem>.<what>` name for the global total.
  static std::string TenantName(const std::string& subsystem, int tenant,
                                const std::string& what) {
    return subsystem + ".tenant" + std::to_string(tenant) + "." + what;
  }

  /// Stable machine-readable dump — schema `hbtree.metrics.v1`, validated
  /// by scripts/validate_metrics.py.
  static std::string ToJson(const MetricsSnapshot& snapshot);
  /// Appends the snapshot into an already-open JsonWriter object (the
  /// bench reporter embeds metrics into BENCH_*.json this way).
  static void AppendJson(const MetricsSnapshot& snapshot, class JsonWriter* w);

 private:
  mutable std::mutex mutex_;  // guards the maps (registration + iteration)
  std::mutex window_mutex_;   // serializes CollectWindow rolls
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::chrono::steady_clock::time_point created_;
  std::chrono::steady_clock::time_point window_start_;
};

}  // namespace hbtree::obs

#endif  // HBTREE_OBS_METRICS_H_
