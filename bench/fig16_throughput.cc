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
// Flags: --min_log2, --max_log2, --queries_log2, --platform, --seed, plus
// the shared observability pair: --metrics_json=<path> (hbtree.bench.v1
// rows with the default metrics registry — device transfer/kernel
// counters — embedded) and --trace_out=<path> (Chrome trace JSON of the
// modelled pipeline stages; load in Perfetto to see H2D/kernel/D2H
// overlap).

#include <cmath>
#include <cstdio>

#include "bench_support/hb_runner.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"

namespace hbtree::bench {
namespace {

/// One 64-bit or 32-bit row: the CPU trees' full-search rates and the
/// HB+-trees' pipeline rates at `n` keys.
template <typename K>
void MeasureSize(const sim::PlatformSpec& platform, std::size_t n,
                 std::size_t q, std::uint64_t seed, const char* width,
                 bool with_latency, BenchReport* report) {
  auto data = GenerateDataset<K>(n, seed);
  auto queries = MakeLookupQueries(data, seed + 1);
  if (queries.size() > q) queries.resize(q);

  SearchMeasurement cpu_implicit, cpu_regular;
  {
    PageRegistry registry;
    typename ImplicitBTree<K>::Config config;
    ImplicitBTree<K> tree(config, &registry);
    tree.Build(data);
    cpu_implicit = MeasureCpuSearch(tree, queries, platform, registry,
                                    config.search_algo);
  }
  {
    PageRegistry registry;
    typename RegularBTree<K>::Config config;
    RegularBTree<K> tree(config, &registry);
    tree.Build(data);
    cpu_regular = MeasureCpuSearch(tree, queries, platform, registry,
                                   config.search_algo);
  }
  PipelineStats hb_implicit, hb_regular;
  {
    SimPlatform sim(platform);
    sim.device.set_metrics_registry(&obs::MetricsRegistry::Default());
    HbImplicitBench<K> bench(&sim, data, queries);
    hb_implicit = bench.Run(queries, bench.MakeConfig());
  }
  {
    SimPlatform sim(platform);
    sim.device.set_metrics_registry(&obs::MetricsRegistry::Default());
    HbRegularBench<K> bench(&sim, data, queries);
    hb_regular = bench.Run(queries, bench.MakeConfig());
  }
  const double best_cpu =
      std::max(cpu_implicit.estimate.mqps, cpu_regular.estimate.mqps);
  const double best_hb = std::max(hb_implicit.mqps, hb_regular.mqps);
  BenchReport::Row& out = report->AddRow();
  out.Text("width", width)
      .Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
      .Num("cpu_impl_mqps", cpu_implicit.estimate.mqps, 1)
      .Num("cpu_reg_mqps", cpu_regular.estimate.mqps, 1)
      .Num("hb_impl_mqps", hb_implicit.mqps, 1)
      .Num("hb_reg_mqps", hb_regular.mqps, 1)
      .Num("best_ratio", best_hb / best_cpu, 2);
  if (with_latency) {
    out.Num("cpu_latency_us", cpu_implicit.estimate.latency_us, 2)
        .Num("hb_latency_us", hb_implicit.avg_latency_us, 1);
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
  for (std::size_t n : sizes) {
    MeasureSize<Key64>(platform, n, q, seed, "64-bit",
                       /*with_latency=*/true, &report);
  }
  for (std::size_t n : sizes) {
    MeasureSize<Key32>(platform, n, q, seed, "32-bit",
                       /*with_latency=*/false, &report);
  }
  report.PrintTable("search throughput MQPS and 64-bit latency (paper Fig. "
                    "16a-c)");
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
