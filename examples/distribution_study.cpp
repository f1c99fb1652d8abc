// Distribution study: how query skew changes where the HB+-tree spends
// its time. For each of the paper's four distributions (Section 6.3) the
// example reports the CPU-side cache behaviour of the leaf step, the
// GPU-side L2 hit rate of the inner search, and the end-to-end pipeline
// throughput — making the mechanism behind Figure 12 visible.

#include <cstdio>

#include "bench_support/calibrate.h"
#include "core/distributions.h"
#include "core/workload.h"
#include "gpusim/device.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_implicit.h"
#include "sim/platform.h"

using namespace hbtree;

int main() {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  auto data = GenerateDataset<Key64>(4'000'000, /*seed=*/5);

  std::printf("%-10s %10s %12s %12s %12s %10s\n", "dist", "hit rate",
              "leaf q/us", "gpu L2 hit", "dram MB", "MQPS");
  for (Distribution distribution :
       {Distribution::kUniform, Distribution::kNormal, Distribution::kGamma,
        Distribution::kZipf}) {
    // Fresh platform per distribution so cache state is comparable.
    gpu::Device device(platform.gpu);
    gpu::TransferEngine transfer(&device, platform.pcie);
    PageRegistry registry;
    HBImplicitTree<Key64>::Config config;
    HBImplicitTree<Key64> tree(config, &registry, &device, &transfer);
    if (!tree.Build(data)) return 1;

    auto queries =
        MakeDistributedQueries<Key64>(1 << 19, distribution, /*seed=*/6);

    // CPU leaf-step profile under this skew.
    auto rates = bench::CalibrateHbCpuRates(tree.host_tree(), queries,
                                            platform, registry);

    // Fraction of queries that actually find a key (skew also changes
    // the hit rate since queries are drawn from the domain, not the set).
    std::size_t found = 0;
    for (std::size_t i = 0; i < 4096; ++i) {
      found += tree.host_tree().Search(queries[i]).found;
    }

    PipelineStats stats =
        RunSearchPipeline(tree, queries.data(), queries.size(),
                          bench::PipelineCosts(rates, platform));
    const double l2_rate =
        static_cast<double>(stats.kernel.l2_bytes) /
        (stats.kernel.l2_bytes + stats.kernel.dram_bytes);
    std::printf("%-10s %9.1f%% %12.1f %11.1f%% %12.1f %10.1f\n",
                DistributionName(distribution), 100.0 * found / 4096,
                rates.leaf_queries_per_us, 100.0 * l2_rate,
                stats.kernel.dram_bytes / 1e6, stats.mqps);
  }
  std::printf(
      "\nSkew concentrates accesses: Zipf keeps the hot leaf lines in the "
      "CPU caches and the hot inner nodes in the GPU L2, lifting both "
      "sides of the pipeline (paper Fig. 12).\n");
  return 0;
}
