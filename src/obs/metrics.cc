#include "obs/metrics.h"

#include "obs/json_writer.h"

namespace hbtree::obs {

std::uint64_t MetricsSnapshot::counter_or(const std::string& name,
                                          std::uint64_t fallback) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return fallback;
}

MetricsRegistry::MetricsRegistry()
    : created_(std::chrono::steady_clock::now()), window_start_(created_) {}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::Collect() const {
  MetricsSnapshot snapshot;
  snapshot.windowed = false;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.window_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    created_)
          .count();
  for (const auto& [name, c] : counters_) {
    snapshot.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snapshot.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    snapshot.histograms.emplace_back(name, h->LifetimeSummary());
  }
  return snapshot;
}

MetricsSnapshot MetricsRegistry::CollectWindow() {
  MetricsSnapshot snapshot;
  snapshot.windowed = true;
  std::lock_guard<std::mutex> window_lock(window_mutex_);
  const auto now = std::chrono::steady_clock::now();
  snapshot.window_seconds =
      std::chrono::duration<double>(now - window_start_).count();
  window_start_ = now;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) {
    const std::uint64_t total = c->value();
    snapshot.counters.emplace_back(name, total - c->window_base_);
    c->window_base_ = total;
  }
  for (const auto& [name, g] : gauges_) {
    snapshot.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    snapshot.histograms.emplace_back(name, h->RollWindow());
  }
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::AppendJson(const MetricsSnapshot& snapshot,
                                 JsonWriter* w) {
  w->BeginObject();
  w->Key("schema");
  w->String("hbtree.metrics.v1");
  w->Key("windowed");
  w->Bool(snapshot.windowed);
  w->Key("window_seconds");
  w->Number(snapshot.window_seconds);
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w->Key(name);
    w->Uint(value);
  }
  w->EndObject();
  w->Key("gauges");
  w->BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w->Key(name);
    w->Number(value);
  }
  w->EndObject();
  w->Key("histograms");
  w->BeginObject();
  for (const auto& [name, s] : snapshot.histograms) {
    w->Key(name);
    w->BeginObject();
    w->Key("count");
    w->Uint(s.count);
    w->Key("p50_us");
    w->Number(s.p50_us);
    w->Key("p90_us");
    w->Number(s.p90_us);
    w->Key("p99_us");
    w->Number(s.p99_us);
    w->Key("max_us");
    w->Number(s.max_us);
    w->Key("mean_us");
    w->Number(s.mean_us);
    if (!s.exemplars.empty()) {
      // Tail exemplars: each links a recorded sample back to the trace
      // span that served it (resolve with scripts/validate_metrics.py
      // --trace). bucket_us is the representative (midpoint) value of
      // the histogram bucket the sample landed in.
      w->Key("exemplars");
      w->BeginArray();
      for (const BucketExemplar& be : s.exemplars) {
        w->BeginObject();
        w->Key("bucket_us");
        w->Number(LatencyHistogram::BucketMidpointNs(be.bucket) / 1e3);
        w->Key("trace_id");
        w->Uint(be.exemplar.trace_id);
        w->Key("span_id");
        w->Uint(be.exemplar.span_id);
        w->Key("shard");
        w->Int(be.exemplar.shard);
        w->Key("wall_us");
        w->Number(be.exemplar.wall_ns / 1e3);
        w->Key("modelled_us");
        w->Number(be.exemplar.modelled_us);
        w->EndObject();
      }
      w->EndArray();
    }
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsRegistry::ToJson(const MetricsSnapshot& snapshot) {
  JsonWriter w;
  AppendJson(snapshot, &w);
  return w.str();
}

}  // namespace hbtree::obs
