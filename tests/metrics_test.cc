// Metrics registry tests: concurrent counter increments (meaningful under
// TSan), windowed-snapshot correctness, histogram percentiles against a
// sorted reference, LatencyHistogram merge/reset, and the no-NaN JSON
// guarantee the validator relies on.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "serve/serve_stats.h"

namespace hbtree::obs {
namespace {

TEST(Counter, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& hits = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) hits.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hits.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.Collect().counter_or("test.hits"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Counter, SameNameReturnsSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.c");
  Counter& b = registry.counter("test.c");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, WindowedCountersReportDeltas) {
  MetricsRegistry registry;
  Counter& ops = registry.counter("test.ops");
  ops.Add(5);
  MetricsSnapshot w1 = registry.CollectWindow();
  EXPECT_TRUE(w1.windowed);
  EXPECT_EQ(w1.counter_or("test.ops"), 5u);

  ops.Add(7);
  MetricsSnapshot w2 = registry.CollectWindow();
  EXPECT_EQ(w2.counter_or("test.ops"), 7u);

  // An idle window reports zero, not the lifetime total.
  MetricsSnapshot w3 = registry.CollectWindow();
  EXPECT_EQ(w3.counter_or("test.ops"), 0u);

  // Lifetime collection is unaffected by window rolls.
  EXPECT_EQ(registry.Collect().counter_or("test.ops"), 12u);
}

TEST(MetricsRegistry, WindowedHistogramsReportIntervalOnly) {
  MetricsRegistry registry;
  Histogram& lat = registry.histogram("test.latency");
  for (int i = 0; i < 100; ++i) lat.Record(1'000);
  MetricsSnapshot w1 = registry.CollectWindow();
  ASSERT_EQ(w1.histograms.size(), 1u);
  EXPECT_EQ(w1.histograms[0].second.count, 100u);

  for (int i = 0; i < 40; ++i) lat.Record(2'000);
  MetricsSnapshot w2 = registry.CollectWindow();
  EXPECT_EQ(w2.histograms[0].second.count, 40u);

  // Lifetime folds every window plus the live interval.
  MetricsSnapshot lifetime = registry.Collect();
  EXPECT_EQ(lifetime.histograms[0].second.count, 140u);
  EXPECT_EQ(lat.count(), 140u);
}

TEST(Gauge, LastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test.level");
  EXPECT_EQ(g.value(), 0.0);
  g.Set(0.75);
  EXPECT_EQ(g.value(), 0.75);
  g.Set(-3.5);
  EXPECT_EQ(registry.Collect().gauges[0].second, -3.5);
}

TEST(Histogram, PercentilesTrackSortedReference) {
  // Log-normal-ish latencies; the histogram's 4-sub-buckets-per-octave
  // resolution bounds any value's attribution error at ~12.5%.
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(10.0, 0.8);  // ~22us median
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.lat");
  std::vector<std::uint64_t> samples;
  samples.reserve(20'000);
  for (int i = 0; i < 20'000; ++i) {
    const auto ns = static_cast<std::uint64_t>(dist(rng));
    samples.push_back(ns);
    h.Record(ns);
  }
  std::sort(samples.begin(), samples.end());
  const auto reference = [&](double q) {
    return samples[static_cast<std::size_t>(q * (samples.size() - 1))] / 1e3;
  };
  const LatencySummary s = h.LifetimeSummary();
  EXPECT_EQ(s.count, samples.size());
  EXPECT_NEAR(s.p50_us, reference(0.50), reference(0.50) * 0.15);
  EXPECT_NEAR(s.p90_us, reference(0.90), reference(0.90) * 0.15);
  EXPECT_NEAR(s.p99_us, reference(0.99), reference(0.99) * 0.15);
  EXPECT_DOUBLE_EQ(s.max_us, samples.back() / 1e3);
  EXPECT_LE(s.p50_us, s.p90_us);
  EXPECT_LE(s.p90_us, s.p99_us);
  EXPECT_LE(s.p99_us, s.max_us);
}

TEST(Histogram, ConcurrentRecordsKeepTotalCount) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<std::uint64_t>(100 + t * 1000 + i % 97));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.LifetimeSummary().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogram, MergeFromAddsCountsAndPropagatesMax) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(1'000);
  for (int i = 0; i < 50; ++i) b.Record(8'000);
  b.Record(1'000'000);
  a.MergeFrom(b);
  const LatencySummary s = a.Summarize();
  EXPECT_EQ(s.count, 151u);
  EXPECT_DOUBLE_EQ(s.max_us, 1'000.0);
  EXPECT_EQ(b.count(), 51u);  // source untouched
}

TEST(LatencyHistogram, ResetZeroesEverything) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Record(5'000);
  h.Reset();
  const LatencySummary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max_us, 0.0);
  EXPECT_EQ(s.mean_us, 0.0);
}

TEST(MetricsRegistry, JsonIsFiniteAndNonFiniteBecomesNull) {
  MetricsRegistry registry;
  registry.counter("test.ops").Add(3);
  registry.gauge("test.ok").Set(1.5);
  registry.histogram("test.lat").Record(1'000);
  // An empty histogram must serialize as zeros, not NaN.
  registry.histogram("test.empty");
  std::string json = MetricsRegistry::ToJson(registry.Collect());
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"hbtree.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.ops\":3"), std::string::npos);

  // A poisoned gauge serializes as null — the validator fails loudly
  // instead of a downstream parser choking on a bare NaN token.
  registry.gauge("test.poisoned")
      .Set(std::numeric_limits<double>::quiet_NaN());
  json = MetricsRegistry::ToJson(registry.Collect());
  EXPECT_NE(json.find("\"test.poisoned\":null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(LatencyHistogram, ExemplarReservoirIsBoundedAndKeepsTheTail) {
  LatencyHistogram h;
  // More distinct buckets than reservoir slots: 1us, 2us, 4us, ... The
  // reservoir must stay bounded and keep the highest buckets.
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 2 * LatencyHistogram::kMaxExemplars; ++i) {
    samples.push_back(std::uint64_t{1'000} << i);
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Exemplar e;
    e.trace_id = 7;
    e.span_id = i + 1;
    e.shard = static_cast<int>(i);
    h.RecordWithExemplar(samples[i], e);
  }
  const std::vector<BucketExemplar> kept = h.Exemplars();
  ASSERT_EQ(kept.size(),
            static_cast<std::size_t>(LatencyHistogram::kMaxExemplars));
  // Sorted by bucket ascending, and the largest sample survived eviction.
  for (std::size_t i = 1; i < kept.size(); ++i) {
    EXPECT_GT(kept[i].bucket, kept[i - 1].bucket);
  }
  EXPECT_EQ(kept.back().exemplar.wall_ns, samples.back());
  EXPECT_EQ(kept.back().exemplar.span_id, samples.size());
  // The evicted entries are the lowest buckets.
  EXPECT_EQ(kept.front().exemplar.wall_ns,
            samples[samples.size() - kept.size()]);
}

TEST(LatencyHistogram, ExemplarPerBucketKeepsTheMaxLatencySample) {
  LatencyHistogram h;
  // Same bucket (4 sub-buckets per octave: 1100 and 1250 both sit in
  // [1024, 1280)): the slower sample must win the slot, arrival order
  // irrelevant.
  Exemplar fast;
  fast.span_id = 1;
  Exemplar slow;
  slow.span_id = 2;
  h.RecordWithExemplar(1'250, slow);
  h.RecordWithExemplar(1'100, fast);
  std::vector<BucketExemplar> kept = h.Exemplars();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].exemplar.span_id, 2u);
  EXPECT_EQ(kept[0].exemplar.wall_ns, 1'250u);
}

TEST(LatencyHistogram, ExemplarThresholdFiltersTheBody) {
  LatencyHistogram h;
  h.SetExemplarThresholdNs(1'000'000);  // only ~1ms+ samples qualify
  Exemplar e;
  e.span_id = 1;
  h.RecordWithExemplar(10'000, e);  // body sample: recorded, no exemplar
  EXPECT_TRUE(h.Exemplars().empty());
  e.span_id = 2;
  h.RecordWithExemplar(2'000'000, e);
  ASSERT_EQ(h.Exemplars().size(), 1u);
  EXPECT_EQ(h.Exemplars()[0].exemplar.span_id, 2u);
  EXPECT_EQ(h.Summarize().count, 2u);  // both samples still counted
}

TEST(LatencyHistogram, MergeFromCarriesExemplarsAndKeepsTheBound) {
  // Shard-style reconciliation: per-shard histograms each carry a full
  // reservoir; the merged histogram must stay bounded and prefer the
  // global tail.
  LatencyHistogram merged;
  std::uint64_t span = 1;
  std::uint64_t max_ns = 0;
  for (int shard = 0; shard < 4; ++shard) {
    LatencyHistogram h;
    for (int i = 0; i < LatencyHistogram::kMaxExemplars; ++i) {
      const std::uint64_t ns = std::uint64_t{1'000}
                               << (shard + 2 * i % 16);
      Exemplar e;
      e.span_id = span++;
      e.shard = shard;
      h.RecordWithExemplar(ns, e);
      max_ns = std::max(max_ns, ns);
    }
    merged.MergeFrom(h);
  }
  const std::vector<BucketExemplar> kept = merged.Exemplars();
  ASSERT_LE(kept.size(),
            static_cast<std::size_t>(LatencyHistogram::kMaxExemplars));
  ASSERT_FALSE(kept.empty());
  EXPECT_EQ(kept.back().exemplar.wall_ns, max_ns);
  // Exemplars ride Summarize() and stay within the recorded range.
  const LatencySummary s = merged.Summarize();
  EXPECT_EQ(s.exemplars.size(), kept.size());
  for (const BucketExemplar& be : kept) {
    EXPECT_LE(be.exemplar.wall_ns / 1e3, s.max_us + 1e-9);
  }
}

TEST(Histogram, RollWindowAdaptsExemplarThresholdToTheTail) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.lat");
  // First interval: body at 10us, a 10% tail at 10ms — big enough that
  // the p99 rank lands inside the tail bucket. Threshold starts at 0,
  // so the first window captures from everywhere.
  for (int i = 0; i < 900; ++i) h.Record(10'000);
  for (int i = 0; i < 100; ++i) h.Record(10'000'000);
  (void)registry.CollectWindow();  // rolls the window, adapts threshold
  // Second interval: the threshold now sits at the previous p99, so a
  // body sample no longer takes an exemplar slot but a tail sample does.
  Exemplar body;
  body.span_id = 1;
  h.RecordWithExemplar(10'000, body);
  MetricsSnapshot after_body = registry.CollectWindow();
  EXPECT_TRUE(after_body.histograms[0].second.exemplars.empty());
  Exemplar tail;
  tail.span_id = 2;
  h.RecordWithExemplar(20'000'000, tail);
  MetricsSnapshot after_tail = registry.CollectWindow();
  ASSERT_EQ(after_tail.histograms[0].second.exemplars.size(), 1u);
  EXPECT_EQ(after_tail.histograms[0].second.exemplars[0].exemplar.span_id,
            2u);
}

TEST(MetricsRegistry, JsonCarriesExemplars) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.lat");
  Exemplar e;
  e.trace_id = 123456;
  e.span_id = 42;
  e.shard = 3;
  e.modelled_us = 17.5;
  h.RecordWithExemplar(5'000'000, e);
  const std::string json = MetricsRegistry::ToJson(registry.Collect());
  EXPECT_NE(json.find("\"exemplars\":["), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":123456"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":3"), std::string::npos);
  EXPECT_NE(json.find("\"modelled_us\":17.5"), std::string::npos);
}

TEST(EvaluateSlos, EstimateBadFractionInterpolatesTheSummary) {
  LatencySummary s;
  s.count = 1000;
  s.p50_us = 10;
  s.p90_us = 40;
  s.p99_us = 100;
  s.max_us = 500;
  // Above the max: nothing is bad. At/below p50: pessimistic half.
  EXPECT_DOUBLE_EQ(EstimateBadFraction(s, 600), 0.0);
  EXPECT_DOUBLE_EQ(EstimateBadFraction(s, 5), 0.5);
  // At the p99 point: ~1% above.
  EXPECT_NEAR(EstimateBadFraction(s, 100), 0.01, 1e-9);
  // Halfway between p90 and p99 in latency: between 10% and 1%.
  const double mid = EstimateBadFraction(s, 70);
  EXPECT_GT(mid, 0.01);
  EXPECT_LT(mid, 0.10);
  // Empty summaries are never bad.
  EXPECT_DOUBLE_EQ(EstimateBadFraction(LatencySummary{}, 1), 0.0);
}

TEST(EvaluateSlos, RatioTargetBurnsWhenBadCountersOutpaceTheBudget) {
  MetricsRegistry registry;
  Counter& shed = registry.counter("test.shed");
  Counter& served = registry.counter("test.served");
  SloSpec spec;
  spec.name = "shed_ratio";
  spec.kind = SloSpec::Kind::kRatio;
  spec.bad_counters = {"test.shed"};
  spec.total_counters = {"test.served", "test.shed"};
  spec.budget = 0.01;

  // 5% shed — five times over a 1% budget.
  served.Add(95);
  shed.Add(5);
  std::vector<SloStatus> status = EvaluateSlos({spec}, registry.Collect());
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].name, "shed_ratio");
  EXPECT_EQ(status[0].budget, 0.01);
  EXPECT_NEAR(status[0].bad_fraction, 0.05, 1e-9);
  EXPECT_NEAR(status[0].burn, 5.0, 1e-9);
  EXPECT_TRUE(status[0].burning());

  // Clean traffic dilutes the damage but does not erase it, whatever
  // windows were rolled in between: the lifetime snapshot holds 5 bad
  // of 300 against a 1% budget.
  for (int i = 0; i < 2; ++i) {
    served.Add(100);
    (void)registry.CollectWindow();
  }
  status = EvaluateSlos({spec}, registry.Collect());
  EXPECT_NEAR(status[0].bad_fraction, 5.0 / 300.0, 1e-9);
  EXPECT_NEAR(status[0].burn, 5.0 / 300.0 / 0.01, 1e-9);
  EXPECT_TRUE(status[0].burning());
}

TEST(EvaluateSlos, LatencyTargetReadsTheLifetimeHistogram) {
  MetricsRegistry registry;
  Histogram& lat = registry.histogram("test.lat");
  SloSpec spec;
  spec.name = "p99";
  spec.kind = SloSpec::Kind::kLatencyP99;
  spec.histogram = "test.lat";
  spec.threshold_us = 100.0;
  spec.budget = 0.01;

  // Samples comfortably under the threshold: no burn.
  for (int i = 0; i < 1000; ++i) lat.Record(10'000);  // 10us
  EXPECT_DOUBLE_EQ(EvaluateSlos({spec}, registry.Collect())[0].burn, 0.0);

  // A window roll, then a tail that blows through 100us: the estimated
  // bad fraction of all 2000 samples exceeds the 1% budget and the burn
  // lights up.
  (void)registry.CollectWindow();
  for (int i = 0; i < 900; ++i) lat.Record(10'000);
  for (int i = 0; i < 100; ++i) lat.Record(1'000'000);  // 1ms tail
  const SloStatus status = EvaluateSlos({spec}, registry.Collect())[0];
  EXPECT_GT(status.bad_fraction, 0.01);
  EXPECT_GT(status.burn, 1.0);
}

TEST(ServeStats, ToStringReportsSloBurnState) {
  serve::ServeStats stats;
  SloStatus slo;
  slo.name = "read_p99";
  slo.budget = 0.01;
  slo.bad_fraction = 0.05;
  slo.burn = 5.0;
  stats.slos.push_back(slo);
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("slo read_p99"), std::string::npos);
  EXPECT_NE(text.find("** BURNING **"), std::string::npos);
}

TEST(ServeStats, DefaultStatsHaveFiniteRates) {
  // The serving layer guards wall_seconds == 0; the struct itself must
  // start finite so an immediately-collected Stats() never reports NaN.
  serve::ServeStats stats;
  EXPECT_TRUE(std::isfinite(stats.reads_per_second));
  EXPECT_TRUE(std::isfinite(stats.updates_per_second));
  EXPECT_EQ(stats.reads_per_second, 0.0);
  const std::string text = stats.ToString();
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace hbtree::obs
