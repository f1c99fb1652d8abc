#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_support/args.h"
#include "bench_support/calibrate.h"
#include "bench_support/harness.h"
#include "bench_support/report.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

TEST(Args, ParsesTypesAndDefaults) {
  const char* argv[] = {"prog", "--n_log2=22", "--platform=m2",
                        "--ratio=0.25", "--flag"};
  Args args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("n_log2", 10), 22);
  EXPECT_EQ(args.GetString("platform", "m1"), "m2");
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio", 0.5), 0.25);
  EXPECT_EQ(args.GetString("flag", ""), "true");
  EXPECT_TRUE(args.Has("flag"));
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_EQ(args.GetInt("missing", 7), 7);
}

TEST(Harness, SizeSweepRespectsBoundsAndStep) {
  const char* argv[] = {"prog", "--min_log2=10", "--max_log2=14"};
  Args args(3, const_cast<char**>(argv));
  auto sizes = SizeSweepFromArgs(args, 0, 0, 2);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 1024u);
  EXPECT_EQ(sizes[1], 4096u);
  EXPECT_EQ(sizes[2], 16384u);
}

TEST(BenchReport, PrintTableFormatsEveryRowInTheColumnUnion) {
  BenchReport report("unit");
  report.AddRow().Text("tree", "implicit").Num("mqps", 3.14159, 2);
  report.AddRow().Text("tree", "regular").Num("depth", 10, 0);
  testing::internal::CaptureStdout();
  report.PrintTable("unit table", 10);
  // Numbers print at their cell's precision; a column the row lacks
  // prints "-".
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "\n=== unit table ===\n"
            "tree      mqps      depth     \n"
            "--------  --------  --------  \n"
            "implicit  3.14      -         \n"
            "regular   -         10        \n");
}

TEST(Calibrate, BiggerTreesAreSlower) {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  double previous = 1e18;
  for (std::size_t n : {std::size_t{1} << 16, std::size_t{1} << 20,
                        std::size_t{1} << 23}) {
    PageRegistry registry;
    ImplicitBTree<Key64>::Config config;
    ImplicitBTree<Key64> tree(config, &registry);
    auto data = workload::GenerateDataset<Key64>(n, 1);
    tree.Build(data);
    auto queries = workload::MakeLookupQueries(data, 2);
    auto m = MeasureCpuSearch(tree, queries, platform, registry,
                              config.search_algo);
    EXPECT_GT(m.estimate.mqps, 0);
    EXPECT_LE(m.estimate.mqps, previous + 1e-9) << n;
    previous = m.estimate.mqps;
  }
}

TEST(Calibrate, LeafRateExceedsFullSearchRate) {
  // The CPU's HB+-tree share (one leaf line) must be far cheaper than a
  // whole traversal — the premise of the hybrid split.
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  config.hybrid_layout = true;
  ImplicitBTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(1 << 21, 3);
  tree.Build(data);
  auto queries = workload::MakeLookupQueries(data, 4);
  auto full = MeasureCpuSearch(tree, queries, platform, registry,
                               config.search_algo);
  auto rates = CalibrateHbCpuRates(tree, queries, platform, registry);
  EXPECT_GT(rates.leaf_queries_per_us, 1.5 * full.estimate.mqps);
  // Per-depth descent costs are monotone in depth.
  for (std::size_t d = 1; d < rates.descend_us_by_depth.size(); ++d) {
    EXPECT_GT(rates.descend_us_by_depth[d],
              rates.descend_us_by_depth[d - 1]);
  }
}

/// Calibrates a 2^16-key tree on M1 and expects exactly the rates and
/// full-search estimate recorded before CalibrateHbCpuRates and
/// MeasureCpuSearch shared MeasureCpuOp's loop: the fold moved no number.
template <typename Tree>
void ExpectPinnedCalibration(double leaf_queries_per_us,
                             double descend_us_per_level,
                             const std::vector<double>& descend_us_by_depth,
                             double search_mqps, double search_latency_us) {
  const sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  typename Tree::Config config;
  Tree tree(config, &registry);
  const auto data = workload::GenerateDataset<Key64>(std::size_t{1} << 16, 1);
  tree.Build(data);
  const auto queries = workload::MakeLookupQueries(data, 2);
  const HbCpuRates rates =
      CalibrateHbCpuRates(tree, queries, platform, registry);
  EXPECT_EQ(rates.leaf_queries_per_us, leaf_queries_per_us);
  EXPECT_EQ(rates.descend_us_per_level, descend_us_per_level);
  EXPECT_EQ(rates.descend_us_by_depth, descend_us_by_depth);
  const SearchMeasurement m = MeasureCpuSearch(tree, queries, platform,
                                               registry, config.search_algo);
  EXPECT_EQ(m.estimate.mqps, search_mqps);
  EXPECT_EQ(m.estimate.latency_us, search_latency_us);
}

TEST(Calibrate, ImplicitRatesMatchThePinnedValues) {
  ExpectPinnedCalibration<ImplicitBTree<Key64>>(
      1428.5714285714287, 0.00069999999999999999,
      {0, 0.00069999999999999999, 0.0014, 0.0020999999999999999, 0.0028,
       0.0035000000000000001},
      238.0952380952381, 1.0752000000000002);
}

TEST(Calibrate, RegularRatesMatchThePinnedValues) {
  ExpectPinnedCalibration<RegularBTree<Key64>>(
      1428.5714285714287, 0.0020999999999999999,
      {0, 0.0020999999999999999, 0.0041999999999999997},
      158.73015873015873, 1.6128);
}

TEST(Calibrate, PipelineCostsChargeTheHybridOverheadPerThread) {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  HbCpuRates rates;
  rates.leaf_queries_per_us = 400;
  rates.descend_us_per_level = 0.01;
  rates.descend_us_by_depth = {0.0, 0.01, 0.03};
  // M1: 16 threads each spend 16e3 / 400 = 40 ns of leaf search per
  // query, plus 35 ns of hybrid overhead: 16e3 / 75 queries per µs.
  const PipelineConfig config = PipelineCosts(rates, platform);
  EXPECT_DOUBLE_EQ(config.cpu_queries_per_us, 16e3 / 75);
  EXPECT_EQ(config.cpu_descend_us_per_level, 0.01);
  EXPECT_EQ(config.cpu_descend_us_by_depth, rates.descend_us_by_depth);
  EXPECT_EQ(config.bucket_size, PipelineConfig{}.bucket_size);
  // Without the overhead the leaf rate passes through.
  platform.cpu.hybrid_overhead_ns = 0;
  EXPECT_DOUBLE_EQ(PipelineCosts(rates, platform).cpu_queries_per_us, 400);
}

TEST(BenchReport, RowsKeepInsertionOrderInJson) {
  BenchReport report("unit");
  report.Meta("platform", "m1");
  report.MetaNum("n", 1024);
  report.AddRow().Num("mqps", 12.5, 1).Text("mode", "sync");
  report.AddRow().Num("mqps", 31.25, 2);
  const std::string json = report.ToJson();
  EXPECT_EQ(json.rfind("{\"schema\":\"hbtree.bench.v1\"", 0), 0u);
  EXPECT_NE(json.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"platform\":\"m1\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":1024"), std::string::npos);
  // JSON keeps full precision regardless of the console precision.
  EXPECT_NE(json.find("\"mqps\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"mqps\":31.25"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"sync\""), std::string::npos);
  // No metrics argument, no metrics key.
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST(BenchReport, AddServeStatsRowUsesCanonicalColumns) {
  serve::ServeStats stats;
  stats.num_shards = 4;
  stats.num_read_workers = 2;
  stats.reads_per_second = 1000;
  stats.transfer_retries = 2;
  stats.kernel_retries = 1;
  stats.sync_retries = 4;
  stats.shed_reads = 3;
  stats.shed_updates = 2;
  BenchReport report("unit");
  BenchReport::Row& row = report.AddRow();
  row.Num("fault_rate", 0.1, 2);
  report.AddServeStatsRow(row, stats);
  const std::string json = report.ToJson();
  // The canonical serving column set — every serve bench emits exactly
  // these names, so downstream tooling never chases renamed columns.
  for (const char* column :
       {"fault_rate", "shards", "read_workers", "reads_per_s",
        "updates_per_s", "read_p50_us", "read_p99_us", "queue_wait_p99_us",
        "modelled_ops_per_s", "retries", "device_faults", "breaker_opens",
        "breaker_closes", "cpu_fallback_buckets", "shed", "slo_max_burn"}) {
    EXPECT_NE(json.find(std::string("\"") + column + "\":"),
              std::string::npos)
        << column;
  }
  EXPECT_NE(json.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(json.find("\"read_workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"retries\":7"), std::string::npos);  // 2 + 1 + 4
  EXPECT_NE(json.find("\"shed\":5"), std::string::npos);     // 3 + 2
}

TEST(BenchReport, SloMaxBurnReportsTheWorstObjective) {
  serve::ServeStats stats;
  obs::SloStatus mild;
  mild.name = "a";
  mild.burn = 0.5;
  obs::SloStatus hot;
  hot.name = "b";
  hot.burn = 3.25;
  stats.slos = {mild, hot};
  BenchReport report("unit");
  report.AddServeStatsRow(report.AddRow(), stats);
  EXPECT_NE(report.ToJson().find("\"slo_max_burn\":3.25"),
            std::string::npos);
}

TEST(BenchReport, SetStagesEmitsTheWaterfallSection) {
  obs::StageWaterfall waterfall;
  obs::StageStats kernel;
  kernel.count = 10;
  kernel.total_us = 300;
  kernel.max_us = 50;
  kernel.share = 0.75;
  obs::StageStats h2d;
  h2d.count = 10;
  h2d.total_us = 100;
  h2d.max_us = 20;
  h2d.share = 0.25;
  waterfall.total_us = 400;
  waterfall.stages = {{"kernel", kernel}, {"h2d", h2d}};
  obs::StageGroup group;
  group.name = "shard0/slot1";
  group.stages = {{"kernel", kernel}};
  waterfall.groups = {group};

  BenchReport report("unit");
  report.AddRow().Num("x", 1, 0);
  report.SetStages(waterfall);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"stages\":{\"total_us\":400"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\":{\"kernel\":{\"count\":10,"
                      "\"total_us\":300,\"mean_us\":30,\"max_us\":50,"
                      "\"share\":0.75}"),
            std::string::npos);
  EXPECT_NE(json.find("\"groups\":{\"shard0/slot1\":{\"kernel\":"),
            std::string::npos);

  // An empty waterfall (e.g. tracing compiled out) emits no section at
  // all rather than a zero-filled one.
  BenchReport bare("unit");
  bare.AddRow().Num("x", 1, 0);
  bare.SetStages(obs::StageWaterfall{});
  EXPECT_EQ(bare.ToJson().find("\"stages\""), std::string::npos);
}

TEST(BenchReport, EmbedsMetricsSnapshot) {
  obs::MetricsRegistry registry;
  registry.counter("unit.ops").Add(9);
  BenchReport report("unit");
  report.AddRow().Num("x", 1, 0);
  const obs::MetricsSnapshot snapshot = registry.Collect();
  const std::string json = report.ToJson(&snapshot);
  EXPECT_NE(json.find("\"metrics\":{\"schema\":\"hbtree.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"unit.ops\":9"), std::string::npos);
}

TEST(BenchReport, AddRowReferencesSurviveGrowth) {
  BenchReport report("unit");
  BenchReport::Row& first = report.AddRow();
  for (int i = 0; i < 100; ++i) report.AddRow().Num("i", i, 0);
  first.Num("late", 7, 0);  // must not be a dangling reference
  EXPECT_NE(report.ToJson().find("\"late\":7"), std::string::npos);
}

TEST(Calibrate, RebuildModelScalesLinearly) {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  RebuildModel small = ModelImplicitRebuild(1 << 20, 1 << 17, platform);
  RebuildModel large = ModelImplicitRebuild(1 << 24, 1 << 21, platform);
  EXPECT_NEAR(large.l_build_us / small.l_build_us, 16.0, 0.1);
  EXPECT_GT(large.transfer_us, small.transfer_us);
  // Transfer stays a small share of the total (Figure 15).
  const double share =
      large.transfer_us /
      (large.l_build_us + large.i_build_us + large.transfer_us);
  EXPECT_LT(share, 0.12);
}

}  // namespace
}  // namespace hbtree::bench
