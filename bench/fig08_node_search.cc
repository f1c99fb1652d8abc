// Figure 8 (Section 6.2): software pipelining and SIMD node search.
//
// Four configurations of the implicit CPU-optimized B+-tree on M2 (the
// AVX2 machine): sequential search without software pipelining,
// sequential + SWP, linear SIMD + SWP, hierarchical SIMD + SWP.
// Expected: SWP improves throughput by ~108-152%; hierarchical SIMD is
// the fastest, and both SIMD variants lose their edge as the tree becomes
// memory-latency bound.
//
// Flags: --min_log2, --max_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per size and search
// setup; `scripts/check.sh paper` gates them).

#include <cmath>
#include <cstdio>

#include "bench_support/harness.h"
#include "cpubtree/implicit_btree.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m2");
  auto sizes = SizeSweepFromArgs(args, 18, 23, 1);
  std::uint64_t seed = args.GetInt("seed", 42);

  struct Setup {
    const char* name;
    NodeSearchAlgo algo;
    int pipeline_depth;
  };
  const Setup setups[] = {
      {"seq (no SWP)", NodeSearchAlgo::kSequential, 1},
      {"sequential", NodeSearchAlgo::kSequential, 16},
      {"linear", NodeSearchAlgo::kLinearSimd, 16},
      {"hierarchical", NodeSearchAlgo::kHierarchicalSimd, 16},
  };

  std::printf("Platform: %s (%s)\n", platform.name.c_str(),
              platform.cpu.name.c_str());
  BenchReport report("fig08_node_search");
  report.Meta("platform", platform.name);
  report.MetaNum("seed", static_cast<double>(seed));
  for (std::size_t n : sizes) {
    auto data = workload::GenerateDataset<Key64>(n, seed);
    auto queries = workload::MakeLookupQueries(data, seed + 1);
    double baseline = 0;
    for (const Setup& setup : setups) {
      PageRegistry registry;
      ImplicitBTree<Key64>::Config config;
      config.search_algo = setup.algo;
      ImplicitBTree<Key64> tree(config, &registry);
      tree.Build(data);
      ModelOptions options;
      options.pipeline_depth = setup.pipeline_depth;
      SearchMeasurement m = MeasureCpuSearch(tree, queries, platform,
                                             registry, setup.algo, options);
      if (baseline == 0) baseline = m.estimate.mqps;
      report.AddRow()
          .Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
          .Text("algorithm", setup.name)
          .Num("mqps", m.estimate.mqps, 1)
          .Num("vs_no_swp", m.estimate.mqps / baseline, 2);
    }
  }
  report.PrintTable("node search / software pipelining (paper Fig. 8)");
  std::printf(
      "\nPaper expectation: SWP gains 108-152%%; hierarchical SIMD "
      "slightly beats linear; SIMD's edge shrinks for large trees.\n");
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
