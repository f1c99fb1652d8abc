// Figure 7 (Section 6.2): memory page configuration.
//
// Three configurations of the CPU-optimized B+-tree:
//   cfg1: I-segment and L-segment on 4K pages
//   cfg2: I-segment on 1G huge pages, L-segment on 4K pages
//   cfg3: both segments on 1G huge pages
//
// (a) average TLB misses per query (single-threaded trace) — misses grow
//     with tree size for cfg1, are bounded by ~1 for cfg2, and vanish for
//     cfg3 until the tree outgrows the four 1G TLB entries;
// (b) multi-threaded search throughput — cfg3 > cfg2 > cfg1 because 1G
//     page walks are also cheaper when they do happen.
//
// Flags: --min_log2, --max_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per tree, size and
// page configuration; `scripts/check.sh paper` gates them).

#include <cmath>
#include <cstdio>

#include "bench_support/harness.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

struct PageConfig {
  const char* name;
  PageSize inner;
  PageSize leaf;
};

constexpr PageConfig kConfigs[] = {
    {"4K/4K", PageSize::k4K, PageSize::k4K},
    {"1G/4K", PageSize::k1G, PageSize::k4K},
    {"1G/1G", PageSize::k1G, PageSize::k1G},
};

template <typename Tree, typename K>
void RunTree(const char* tree_name, const sim::PlatformSpec& platform,
             const std::vector<std::size_t>& sizes, std::uint64_t seed,
             BenchReport* report) {
  for (std::size_t n : sizes) {
    auto data = workload::GenerateDataset<K>(n, seed);
    auto queries = workload::MakeLookupQueries(data, seed + 1);
    for (const PageConfig& config : kConfigs) {
      PageRegistry registry;
      typename Tree::Config tree_config;
      tree_config.inner_page = config.inner;
      tree_config.leaf_page = config.leaf;
      Tree tree(tree_config, &registry);
      tree.Build(data);

      SearchMeasurement m =
          MeasureCpuSearch(tree, queries, platform, registry,
                           tree_config.search_algo);
      report->AddRow()
          .Text("tree", tree_name)
          .Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
          .Text("config", config.name)
          .Num("tlb_misses_per_query", m.profile.TlbMissesPerQuery(), 3)
          .Num("walk_accesses_per_query",
               static_cast<double>(m.profile.walk_accesses) /
                   m.profile.queries,
               3)
          .Num("mqps", m.estimate.mqps, 1);
    }
  }
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) {
  using namespace hbtree;
  using namespace hbtree::bench;
  Args args(argc, argv);
  args.PrintActive();
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  auto sizes = SizeSweepFromArgs(args, 18, 22, 2);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s (%s)\n", platform.name.c_str(),
              platform.cpu.name.c_str());
  BenchReport report("fig07_page_config");
  report.Meta("platform", platform.name);
  report.MetaNum("seed", static_cast<double>(seed));
  RunTree<ImplicitBTree<Key64>, Key64>("implicit", platform, sizes, seed,
                                       &report);
  RunTree<RegularBTree<Key64>, Key64>("regular", platform, sizes, seed,
                                      &report);
  report.PrintTable("page configuration (paper Fig. 7)");
  std::printf(
      "\nPaper expectation: cfg1 misses grow with tree size; cfg2 bounded "
      "by ~1 miss/query; cfg3 ~0 for trees < 4GB; throughput cfg3 >= cfg2 "
      "> cfg1.\n");
  MaybeWriteReport(args, report);
  return 0;
}
