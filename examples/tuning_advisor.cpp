// Tuning advisor: explores how the HB+-tree should be configured for a
// given platform — bucket size, execution strategy, and the (D, R)
// load-balance split discovered by Algorithm 1 — and prints a
// recommendation. Run it per platform:
//
//   $ ./examples/tuning_advisor            # M1 (server + GTX 780)
//   $ ./examples/tuning_advisor m2         # M2 (laptop + GTX 770M)

#include <cstdio>
#include <string>

#include "bench_support/calibrate.h"
#include "core/workload.h"
#include "gpusim/device.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/load_balancer.h"
#include "sim/platform.h"

using namespace hbtree;
using bench::CalibrateHbCpuRates;

int main(int argc, char** argv) {
  sim::PlatformSpec platform =
      sim::PlatformSpec::Parse(argc > 1 ? argv[1] : "m1");
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  PageRegistry registry;

  std::printf("Tuning for %s: %s + %s\n", platform.name.c_str(),
              platform.cpu.name.c_str(), platform.gpu.name.c_str());

  auto data = GenerateDataset<Key64>(4'000'000, /*seed=*/1);
  auto queries = MakeLookupQueries(data, /*seed=*/2);
  queries.resize(1 << 18);

  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &registry, &device, &transfer);
  if (!tree.Build(data)) return 1;

  auto rates = CalibrateHbCpuRates(tree.host_tree(), queries, platform,
                                   registry);
  PipelineConfig base = bench::PipelineCosts(rates, platform);

  // 1. Bucket size: largest throughput subject to a latency budget.
  std::printf("\n-- bucket size sweep (latency budget 300 us) --\n");
  int best_bucket = 16 * 1024;
  double best_mqps = 0;
  for (int bucket : {4096, 8192, 16384, 32768, 65536}) {
    PipelineConfig c = base;
    c.bucket_size = bucket;
    PipelineStats s =
        RunSearchPipeline(tree, queries.data(), queries.size(), c);
    std::printf("  M=%3dK  %6.1f MQPS  latency %7.1f us%s\n",
                bucket / 1024, s.mqps, s.avg_latency_us,
                s.avg_latency_us > 300 ? "  (over budget)" : "");
    if (s.avg_latency_us <= 300 && s.mqps > best_mqps) {
      best_mqps = s.mqps;
      best_bucket = bucket;
    }
  }
  base.bucket_size = best_bucket;

  // 2. Strategy comparison.
  std::printf("\n-- execution strategy --\n");
  for (BucketStrategy strategy :
       {BucketStrategy::kSequential, BucketStrategy::kPipelined,
        BucketStrategy::kDoubleBuffered}) {
    PipelineConfig c = base;
    c.strategy = strategy;
    PipelineStats s =
        RunSearchPipeline(tree, queries.data(), queries.size(), c);
    std::printf("  %-16s %6.1f MQPS\n", BucketStrategyName(strategy),
                s.mqps);
  }

  // 3. Load-balance discovery (Algorithm 1).
  std::printf("\n-- load-balance discovery --\n");
  PipelineStats plain =
      RunSearchPipeline(tree, queries.data(), queries.size(), base);
  LoadBalanceSetting setting = DiscoverLoadBalance(
      tree, queries.data(), std::min<std::size_t>(queries.size(), 32768),
      base);
  PipelineStats balanced = RunSearchPipeline(
      tree, queries.data(), queries.size(), WithLoadBalance(base, setting));
  std::printf("  plain: %.1f MQPS; balanced (D=%d, R=%.2f): %.1f MQPS\n",
              plain.mqps, setting.d, setting.r, balanced.mqps);

  const bool use_lb = balanced.mqps > plain.mqps * 1.02;
  std::printf("\n== recommendation for %s ==\n", platform.name.c_str());
  std::printf("  bucket size      : %dK queries\n", best_bucket / 1024);
  std::printf("  strategy         : double-buffered pipeline\n");
  if (use_lb) {
    std::printf("  load balancing   : ON  (D=%d levels on CPU, R=%.2f)\n",
                setting.d, setting.r);
  } else {
    std::printf("  load balancing   : OFF (GPU fast enough; CPU-bound)\n");
  }
  std::printf("  expected         : %.1f MQPS on the simulated platform\n",
              use_lb ? balanced.mqps : plain.mqps);
  return 0;
}
