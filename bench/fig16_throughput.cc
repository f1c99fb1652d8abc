// Figure 16 (Section 6.4): HB+-tree vs CPU-optimized B+-tree — the
// paper's headline result.
//
// (a) 64-bit search throughput, (b) 32-bit search throughput,
// (c) 64-bit latency, across tree sizes on M1. Expected: the implicit
// HB+-tree plateaus (CPU-bound leaf search), the regular HB+-tree
// declines slowly (GPU-bound at scale), the CPU trees decline with size;
// the hybrid wins by ~2.4X (64-bit) / ~2.1X (32-bit) on average, at ~67X
// higher per-query latency (Section 6.4 explains the ratio via the
// number of in-flight queries each platform needs).

//
// Flags: --sizes, --queries_log2, --platform, --seed, plus the shared
// observability pair: --metrics_json=<path> (hbtree.bench.v1 rows with
// the default metrics registry — device transfer/kernel counters —
// embedded) and --trace_out=<path> (Chrome trace JSON of the modelled
// pipeline stages; load in Perfetto to see H2D/kernel/D2H overlap).

#include <cmath>
#include <cstdio>

#include "bench_support/hb_runner.h"
#include "bench_support/report.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"

namespace hbtree::bench {
namespace {

template <typename K>
struct Row {
  double cpu_implicit_mqps, cpu_regular_mqps;
  double hb_implicit_mqps, hb_regular_mqps;
  double cpu_latency_us, hb_latency_us;
};

template <typename K>
Row<K> MeasureSize(const sim::PlatformSpec& platform, std::size_t n,
                   std::size_t q, std::uint64_t seed) {
  Row<K> row{};
  auto data = GenerateDataset<K>(n, seed);
  auto queries = MakeLookupQueries(data, seed + 1);
  if (queries.size() > q) queries.resize(q);

  {
    PageRegistry registry;
    typename ImplicitBTree<K>::Config config;
    ImplicitBTree<K> tree(config, &registry);
    tree.Build(data);
    auto m = MeasureCpuSearch(tree, queries, platform, registry,
                              config.search_algo);
    row.cpu_implicit_mqps = m.estimate.mqps;
    row.cpu_latency_us = m.estimate.latency_us;
  }
  {
    PageRegistry registry;
    typename RegularBTree<K>::Config config;
    RegularBTree<K> tree(config, &registry);
    tree.Build(data);
    auto m = MeasureCpuSearch(tree, queries, platform, registry,
                              config.search_algo);
    row.cpu_regular_mqps = m.estimate.mqps;
  }
  {
    SimPlatform sim(platform);
    sim.device.set_metrics_registry(&obs::MetricsRegistry::Default());
    HbImplicitBench<K> bench(&sim, data, queries);
    PipelineStats stats = bench.Run(queries, bench.MakeConfig());
    row.hb_implicit_mqps = stats.mqps;
    row.hb_latency_us = stats.avg_latency_us;
  }
  {
    SimPlatform sim(platform);
    sim.device.set_metrics_registry(&obs::MetricsRegistry::Default());
    HbRegularBench<K> bench(&sim, data, queries);
    PipelineStats stats = bench.Run(queries, bench.MakeConfig());
    row.hb_regular_mqps = stats.mqps;
  }
  return row;
}

template <typename K>
void RunWidth(const char* width, const sim::PlatformSpec& platform,
              const std::vector<std::size_t>& sizes, std::size_t q,
              std::uint64_t seed, bool print_latency, BenchReport* report) {
  Table table({"tuples", "cpu-impl", "cpu-reg", "hb-impl", "hb-reg",
               "best ratio"});
  table.PrintTitle(std::string("search throughput MQPS, ") + width +
                   " (paper Fig. 16a/16b)");
  table.PrintHeader();
  std::vector<Row<K>> rows;
  double ratio_sum = 0;
  for (std::size_t n : sizes) {
    Row<K> row = MeasureSize<K>(platform, n, q, seed);
    rows.push_back(row);
    const double best_cpu =
        std::max(row.cpu_implicit_mqps, row.cpu_regular_mqps);
    const double best_hb =
        std::max(row.hb_implicit_mqps, row.hb_regular_mqps);
    ratio_sum += best_hb / best_cpu;
    BenchReport::Row& out = report->AddRow();
    out.Text("width", width)
        .Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
        .Num("cpu_impl_mqps", row.cpu_implicit_mqps, 1)
        .Num("cpu_reg_mqps", row.cpu_regular_mqps, 1)
        .Num("hb_impl_mqps", row.hb_implicit_mqps, 1)
        .Num("hb_reg_mqps", row.hb_regular_mqps, 1)
        .Num("best_ratio", best_hb / best_cpu, 2);
    if (print_latency) {
      out.Num("cpu_latency_us", row.cpu_latency_us, 2)
          .Num("hb_latency_us", row.hb_latency_us, 1);
    }
    table.PrintRow({Table::Log2Size(n), Table::Num(row.cpu_implicit_mqps, 1),
                    Table::Num(row.cpu_regular_mqps, 1),
                    Table::Num(row.hb_implicit_mqps, 1),
                    Table::Num(row.hb_regular_mqps, 1),
                    Table::Num(best_hb / best_cpu, 2) + "x"});
  }
  std::printf("average best-HB / best-CPU: %.2fx\n",
              ratio_sum / sizes.size());

  if (print_latency) {
    Table lat({"tuples", "cpu us", "hb us", "ratio"});
    lat.PrintTitle("query latency (paper Fig. 16c)");
    lat.PrintHeader();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      lat.PrintRow({Table::Log2Size(sizes[i]),
                    Table::Num(rows[i].cpu_latency_us, 2),
                    Table::Num(rows[i].hb_latency_us, 1),
                    Table::Num(rows[i].hb_latency_us /
                                   rows[i].cpu_latency_us, 0) + "x"});
    }
  }
}

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  auto sizes = SizeSweepFromArgs(args, 20, 24, 1);
  const std::size_t q = std::size_t{1} << args.GetInt("queries_log2", 19);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s (%s + %s)\n", platform.name.c_str(),
              platform.cpu.name.c_str(), platform.gpu.name.c_str());
  MaybeStartTrace(args);
  BenchReport report("fig16_throughput");
  report.Meta("platform", platform.name);
  report.MetaNum("queries", static_cast<double>(q));
  report.MetaNum("seed", static_cast<double>(seed));
  RunWidth<Key64>("64-bit", platform, sizes, q, seed,
                  /*print_latency=*/true, &report);
  RunWidth<Key32>("32-bit", platform, sizes, q, seed,
                  /*print_latency=*/false, &report);
  MaybeWriteTrace(args);
  std::printf(
      "\nPaper expectation: implicit HB+-tree flat at ~240 MQPS "
      "(CPU-bound); regular HB+-tree declines with size; hybrid beats the "
      "CPU tree ~2.4x (64-bit) / ~2.1x (32-bit); HB latency ~67x CPU.\n");
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Default().Collect();
  MaybeWriteReport(args, report, &snapshot);
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) {
  hbtree::bench::Args args(argc, argv);
  args.PrintActive();
  hbtree::bench::Run(args);
  return 0;
}
