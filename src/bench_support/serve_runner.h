#ifndef HBTREE_BENCH_SUPPORT_SERVE_RUNNER_H_
#define HBTREE_BENCH_SUPPORT_SERVE_RUNNER_H_

#include <vector>

#include "bench_support/calibrate.h"
#include "bench_support/harness.h"
#include "serve/server.h"
#include "workload/paper.h"

namespace hbtree::bench {

/// Builds ServerOptions with the CPU leaf rate and update cost
/// calibrated for `data` on `platform` — the serve-layer analogue of
/// HbBench's setup. A throwaway host tree is built once for calibration;
/// the server then builds its own snapshot pair from the same data.
template <typename K>
serve::ServerOptions CalibratedServerOptions(
    const sim::PlatformSpec& platform, const std::vector<KeyValue<K>>& data,
    std::uint64_t seed, int bucket_size = 16 * 1024) {
  serve::ServerOptions options;
  options.platform = platform;
  options.bucket_size = bucket_size;

  PageRegistry registry;
  typename RegularBTree<K>::Config config;
  config.leaf_fill = serve::ServerOptions::leaf_fill;
  RegularBTree<K> tree(config, &registry);
  tree.Build(data);
  const std::vector<K> queries = workload::MakeLookupQueries(data, seed);
  options.cpu_queries_per_us =
      MeasureLeafRate(tree, queries, platform, registry);
  options.cpu_update_us =
      EstimateUpdateCostUs(tree, queries, platform, registry);
  return options;
}

}  // namespace hbtree::bench

#endif  // HBTREE_BENCH_SUPPORT_SERVE_RUNNER_H_
