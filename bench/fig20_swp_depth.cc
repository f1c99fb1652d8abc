// Figure 20 (Appendix B.2): software pipelining depth.
//
// Lookup throughput and latency of the implicit CPU-optimized B+-tree
// for pipeline depths 1..32 (Algorithm 2). Expected: throughput improves
// ~2.5X from depth 1 to 16 with flattening gains (memory-level
// parallelism saturates), while latency grows roughly linearly with the
// depth — ~6X at depth 16.
//
// Flags: --n_log2, --platform, --seed, and --metrics_json=<path>
// (hbtree.bench.v1 rows, one per depth; `scripts/check.sh paper` gates
// them).

#include <cstdio>

#include "bench_support/harness.h"
#include "cpubtree/implicit_btree.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 23);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s, n=%zu\n", platform.name.c_str(), n);
  auto data = GenerateDataset<Key64>(n, seed);
  auto queries = MakeLookupQueries(data, seed + 1);

  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  tree.Build(data);

  BenchReport report("fig20_swp_depth");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("seed", static_cast<double>(seed));
  double base_mqps = 0, base_latency = 0;
  for (int depth : {1, 2, 4, 8, 16, 32}) {
    ModelOptions options;
    options.pipeline_depth = depth;
    auto m = MeasureCpuSearch(tree, queries, platform, registry,
                              config.search_algo, options);
    if (depth == 1) {
      base_mqps = m.estimate.mqps;
      base_latency = m.estimate.latency_us;
    }
    report.AddRow()
        .Num("depth", depth, 0)
        .Num("mqps", m.estimate.mqps, 1)
        .Num("vs_depth1", m.estimate.mqps / base_mqps, 2)
        .Num("latency_us", m.estimate.latency_us, 2)
        .Num("latency_ratio", m.estimate.latency_us / base_latency, 1);
  }
  report.PrintTable("software pipeline depth (paper Fig. 20)");
  std::printf(
      "\nPaper expectation: ~2.5x throughput by depth 16, little beyond; "
      "latency ~6x at depth 16 and rising with depth.\n");
  MaybeWriteReport(args, report);
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) {
  hbtree::bench::Args args(argc, argv);
  args.PrintActive();
  hbtree::bench::Run(args);
  return 0;
}
