// Extension (paper Section 7, future work #1): employing GPU cycles for
// index maintenance — here, rebuilding the implicit HB+-tree's I-segment
// *on the device* from uploaded leaf maxima instead of building it on the
// CPU and shipping the whole segment over PCIe.
//
// Expected: the maxima upload moves ~12% less data than the full
// I-segment (the bottom inner level nearly equals the maxima array), the
// build kernel itself is bandwidth-trivial, and the CPU is relieved of
// the I-segment construction pass — a modest but real improvement of
// Figure 15's refresh path.
//
// Flags: --min_log2, --max_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per size;
// `scripts/check.sh paper` gates them).

#include <cmath>
#include <cstdio>

#include "bench_support/harness.h"
#include "hybrid/gpu_build.h"
#include "hybrid/hb_implicit.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  auto sizes = SizeSweepFromArgs(args, 20, 24, 1);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s\n", platform.name.c_str());
  BenchReport report("ext_gpu_build");
  report.Meta("platform", platform.name);
  report.MetaNum("seed", static_cast<double>(seed));
  for (std::size_t n : sizes) {
    auto data = workload::GenerateDataset<Key64>(n, seed);
    SimPlatform sim(platform);
    PageRegistry registry;
    HBImplicitTree<Key64>::Config config;
    HBImplicitTree<Key64> tree(config, &registry, &sim.device,
                               &sim.transfer);
    HBTREE_CHECK(tree.Build(data));
    const auto& host = tree.host_tree();

    // Baseline: CPU builds the I-segment (modelled as in Figure 15) and
    // uploads it whole.
    RebuildModel model = ModelImplicitRebuild(host.l_segment_bytes(),
                                              host.i_segment_bytes(),
                                              platform);
    const double baseline_us = model.i_build_us + model.transfer_us;

    // GPU-assisted: upload leaf maxima, build on device.
    const std::uint64_t before = sim.transfer.bytes_h2d();
    const double assisted_us = BuildISegmentOnDevice<Key64>(
        host, sim.device, sim.transfer, tree.device_nodes());
    const std::uint64_t maxima_bytes = sim.transfer.bytes_h2d() - before;

    report.AddRow()
        .Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
        .Num("cpu_upload_us", baseline_us, 0)
        .Num("gpu_assist_us", assisted_us, 0)
        .Num("speedup", baseline_us / assisted_us, 2)
        .Num("saved_mb", (host.i_segment_bytes() - maxima_bytes) / 1e6, 1);
  }
  report.PrintTable("GPU-assisted I-segment rebuild (Section 7 extension)");
  std::printf(
      "\nExpectation: a modest constant-factor win — less PCIe traffic and "
      "no CPU I-segment pass — bounded by the maxima upload, which is "
      "~7/8 of the I-segment for fanout 8.\n");
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
