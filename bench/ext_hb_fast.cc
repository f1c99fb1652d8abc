// Extension (paper Section 7, future work #2): the leaf-stored-tree
// hybridization framework, demonstrated by plugging FAST into the same
// CPU-GPU bucket pipeline as the HB+-trees — and an ablation of why the
// HB+-tree's team search is the better GPU citizen.
//
// HB-FAST mirrors FAST's blocked separator array into device memory and
// finishes lookups on the CPU's sorted pair array. Its descent is one
// thread per query, so a warp's 32 block loads hit up to 32 distinct
// 64-byte segments per level; the HB+-tree's 8-thread team search loads
// at most 4 segments per warp per level. Same pipeline, same platform —
// the transaction counts and throughput below quantify the difference.
//
// Flags: --n_log2, --queries_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per tree;
// `scripts/check.sh paper` gates them).

#include <cstdio>

#include "bench_support/hb_runner.h"
#include "bench_support/report.h"
#include "hybrid/hb_fast.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 23);
  const std::size_t q = std::size_t{1} << args.GetInt("queries_log2", 19);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s, n=%zu\n", platform.name.c_str(), n);
  auto data = workload::GenerateDataset<Key64>(n, seed);
  auto queries = workload::MakeLookupQueries(data, seed + 1);
  queries.resize(std::min(q, queries.size()));

  BenchReport report("ext_hb_fast");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("queries", static_cast<double>(queries.size()));
  report.MetaNum("seed", static_cast<double>(seed));
  auto add_row = [&report](const char* tree, const PipelineStats& stats,
                           int levels) {
    report.AddRow()
        .Text("tree", tree)
        .Num("mqps", stats.mqps, 1)
        .Num("tx_per_warp_level",
             static_cast<double>(stats.kernel.memory_transactions) /
                 stats.kernel.warps_executed / levels,
             2)
        .Num("gpu_dram_mb", stats.kernel.dram_bytes / 1e6, 1)
        .Num("t2_us", stats.t2_us, 1);
  };

  {
    SimPlatform sim(platform);
    HbImplicitBench<Key64> bench(&sim, data, queries);
    add_row("hb-implicit", bench.Run(queries, bench.MakeConfig()),
            bench.tree().host_tree().height());
  }
  {
    SimPlatform sim(platform);
    PageRegistry registry;
    HBFastTree<Key64>::Config config;
    HBFastTree<Key64> tree(config, &registry, &sim.device, &sim.transfer);
    HBTREE_CHECK(tree.Build(data));
    // The CPU's share: one pair-array access per query.
    PipelineConfig pconfig;
    pconfig.cpu_queries_per_us = 200;  // comparable leaf step to the HB+-tree
    add_row("hb-fast",
            RunSearchPipeline(tree, queries.data(), queries.size(), pconfig),
            tree.host_tree().block_levels());
  }
  report.PrintTable("framework extension: HB+-tree vs HB-FAST");
  std::printf(
      "\nExpectation: both are functionally correct through the same "
      "pipeline; HB-FAST's uncoalesced per-thread descent issues several "
      "times more memory transactions per warp-level, inflating its GPU "
      "stage.\n");
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
