// Figure 19 (Appendix B.1): HB+-tree lookup using only the CPU.
//
// The HB+-tree node layouts searched entirely on the CPU, against the
// CPU-optimized layouts. Expected: the regular variants are identical
// (same node structures); the CPU-optimized implicit tree slightly beats
// the implicit HB+-tree, whose fanout is decremented by one for the
// benefit of the GPU kernel (8 vs 9 for 64-bit keys), making it taller.
//
// Flags: --min_log2, --max_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per size;
// `scripts/check.sh paper` gates them).

#include <cmath>
#include <cstdio>

#include "bench_support/harness.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  auto sizes = SizeSweepFromArgs(args, 20, 24, 1);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s\n", platform.name.c_str());
  BenchReport report("fig19_cpu_lookup");
  report.Meta("platform", platform.name);
  report.MetaNum("seed", static_cast<double>(seed));
  for (std::size_t n : sizes) {
    auto data = workload::GenerateDataset<Key64>(n, seed);
    auto queries = workload::MakeLookupQueries(data, seed + 1);

    PageRegistry r1;
    ImplicitBTree<Key64>::Config cpu_config;  // fanout 9
    ImplicitBTree<Key64> cpu_tree(cpu_config, &r1);
    cpu_tree.Build(data);
    auto cpu = MeasureCpuSearch(cpu_tree, queries, platform, r1,
                                cpu_config.search_algo);

    PageRegistry r2;
    ImplicitBTree<Key64>::Config hb_config;
    hb_config.hybrid_layout = true;  // fanout 8
    ImplicitBTree<Key64> hb_tree(hb_config, &r2);
    hb_tree.Build(data);
    auto hb = MeasureCpuSearch(hb_tree, queries, platform, r2,
                               hb_config.search_algo);

    PageRegistry r3;
    RegularBTree<Key64>::Config reg_config;
    RegularBTree<Key64> reg_tree(reg_config, &r3);
    reg_tree.Build(data);
    auto reg = MeasureCpuSearch(reg_tree, queries, platform, r3,
                                reg_config.search_algo);

    report.AddRow()
        .Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
        .Num("cpu_impl_mqps", cpu.estimate.mqps, 1)
        .Num("hb_impl_mqps", hb.estimate.mqps, 1)
        .Num("impl_ratio", cpu.estimate.mqps / hb.estimate.mqps, 2)
        .Num("regular_mqps", reg.estimate.mqps, 1)
        .Num("cpu_height", cpu_tree.height(), 0)
        .Num("hb_height", hb_tree.height(), 0);
  }
  report.PrintTable("CPU-only lookup: HB vs CPU layouts (paper Fig. 19)");
  std::printf(
      "\nPaper expectation: regular layouts identical by construction; "
      "CPU-optimized implicit slightly ahead of the HB implicit layout "
      "(fanout 9 vs 8 -> shallower tree).\n");
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
