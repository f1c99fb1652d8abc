// Figure 9 (Section 6.2): comparison with FAST.
//
// The implicit CPU-optimized B+-tree against our reimplementation of FAST
// (Kim et al.), both searched with SIMD and software pipelining on the
// same simulated platform. The paper reports the B+-tree ~1.3X faster on
// average — its 8-key-per-line fanout uses each fetched cache line better
// than FAST's 3-level binary blocks.
//
// Flags: --min_log2, --max_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per size;
// `scripts/check.sh paper` gates them).

#include <cmath>
#include <cstdio>

#include "bench_support/harness.h"
#include "cpubtree/implicit_btree.h"
#include "fast/fast_tree.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  auto sizes = SizeSweepFromArgs(args, 18, 23, 1);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s (%s)\n", platform.name.c_str(),
              platform.cpu.name.c_str());
  BenchReport report("fig09_fast_compare");
  report.Meta("platform", platform.name);
  report.MetaNum("seed", static_cast<double>(seed));
  for (std::size_t n : sizes) {
    auto data = GenerateDataset<Key64>(n, seed);
    auto queries = MakeLookupQueries(data, seed + 1);

    PageRegistry btree_registry;
    ImplicitBTree<Key64>::Config btree_config;
    ImplicitBTree<Key64> btree(btree_config, &btree_registry);
    btree.Build(data);
    SearchMeasurement mb =
        MeasureCpuSearch(btree, queries, platform, btree_registry,
                         btree_config.search_algo);

    PageRegistry fast_registry;
    FastTree<Key64>::Config fast_config;
    FastTree<Key64> fast(fast_config, &fast_registry);
    fast.Build(data);
    // FAST's in-block search is SIMD too; charge the linear-SIMD rate.
    SearchMeasurement mf =
        MeasureCpuSearch(fast, queries, platform, fast_registry,
                         NodeSearchAlgo::kLinearSimd);

    report.AddRow()
        .Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
        .Num("btree_mqps", mb.estimate.mqps, 1)
        .Num("fast_mqps", mf.estimate.mqps, 1)
        .Num("speedup", mb.estimate.mqps / mf.estimate.mqps, 2)
        .Num("btree_accesses_per_query", mb.profile.AccessesPerQuery(), 2)
        .Num("fast_accesses_per_query", mf.profile.AccessesPerQuery(), 2);
  }
  report.PrintTable("implicit B+-tree vs FAST (paper Fig. 9)");
  std::printf("\nPaper expectation: the B+-tree ~1.3x faster on average.\n");
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
