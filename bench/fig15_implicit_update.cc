// Figure 15 (Section 6.3): implicit HB+-tree update cost.
//
// The implicit tree cannot apply individual updates: a batch rebuilds the
// whole tree (L-segment, then I-segment) and re-uploads the I-segment to
// device memory. The bars break the cost into those three phases; the
// paper finds the transfer is only 3-7% of the total rebuild cost —
// i.e. hybridization adds little to the implicit tree's update price.
//
// Flags: --min_log2, --max_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per size;
// `scripts/check.sh paper` gates them).

#include <cmath>
#include <cstdio>

#include "bench_support/hb_runner.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  auto sizes = SizeSweepFromArgs(args, 20, 24, 1);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s\n", platform.name.c_str());
  BenchReport report("fig15_implicit_update");
  report.Meta("platform", platform.name);
  report.MetaNum("seed", static_cast<double>(seed));
  for (std::size_t n : sizes) {
    auto data = workload::GenerateDataset<Key64>(n, seed);
    SimPlatform sim(platform);
    PageRegistry registry;
    HBImplicitTree<Key64>::Config config;
    HBImplicitTree<Key64> tree(config, &registry, &sim.device,
                               &sim.transfer);
    // Functional rebuild + re-upload (device mirror stays consistent).
    HBTREE_CHECK(tree.Build(data));
    const double measured_transfer_us = tree.SyncISegment();

    RebuildModel model = ModelImplicitRebuild(
        tree.host_tree().l_segment_bytes(),
        tree.host_tree().i_segment_bytes(), platform);
    const double total_us =
        model.l_build_us + model.i_build_us + measured_transfer_us;
    report.AddRow()
        .Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
        .Num("l_build_us", model.l_build_us, 0)
        .Num("i_build_us", model.i_build_us, 0)
        .Num("transfer_us", measured_transfer_us, 0)
        .Num("transfer_pct", 100.0 * measured_transfer_us / total_us, 1);
  }
  report.PrintTable("implicit HB+-tree rebuild phases (paper Fig. 15)");
  std::printf(
      "\nPaper expectation: I-segment transfer is 3-7%% of the total "
      "rebuild cost.\n");
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
