#ifndef HBTREE_BENCH_SUPPORT_HB_RUNNER_H_
#define HBTREE_BENCH_SUPPORT_HB_RUNNER_H_

#include <vector>

#include "bench_support/calibrate.h"
#include "bench_support/harness.h"
#include "core/status.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"

namespace hbtree::bench {

/// Bundles an HB+-tree with its calibrated CPU rates — the setup every
/// hybrid figure harness repeats.
template <typename K, typename HBTreeT>
class HbBench {
 public:
  HbBench(SimPlatform* sim, const std::vector<KeyValue<K>>& data,
          const std::vector<K>& calibration_queries,
          typename HBTreeT::Config config = {})
      : sim_(sim),
        tree_(config, &registry_, &sim->device, &sim->transfer) {
    const Status built = tree_.TryBuild(data);
    HBTREE_CHECK_MSG(built.ok(), "%s: %s", StatusCodeName(built.code()),
                     built.message().c_str());
    rates_ = CalibrateHbCpuRates(tree_.host_tree(), calibration_queries,
                                 sim->spec, registry_);
  }

  /// The leaf rate seen by the pipeline: calibrated leaf-search rate with
  /// the per-query pipeline overhead added to each thread's time.
  double EffectiveLeafRate() const {
    const double threads = sim_->spec.cpu.threads;
    const double thread_time_ns =
        threads * 1e3 / rates_.leaf_queries_per_us +
        sim_->spec.cpu.hybrid_overhead_ns;
    return threads * 1e3 / thread_time_ns;
  }

  PipelineConfig MakeConfig(
      BucketStrategy strategy = BucketStrategy::kDoubleBuffered,
      int bucket_size = 16 * 1024) const {
    PipelineConfig config;
    config.bucket_size = bucket_size;
    config.strategy = strategy;
    config.cpu_queries_per_us = EffectiveLeafRate();
    config.cpu_descend_us_per_level = rates_.descend_us_per_level;
    config.cpu_descend_us_by_depth = rates_.descend_us_by_depth;
    return config;
  }

  PipelineStats Run(const std::vector<K>& queries,
                    const PipelineConfig& config,
                    std::vector<LookupResult<K>>* results = nullptr) {
    return RunSearchPipeline(tree_, queries.data(), queries.size(), config,
                             results);
  }

  HBTreeT& tree() { return tree_; }
  PageRegistry& registry() { return registry_; }
  const HbCpuRates& rates() const { return rates_; }

 private:
  SimPlatform* sim_;
  PageRegistry registry_;
  HBTreeT tree_;
  HbCpuRates rates_;
};

template <typename K>
using HbImplicitBench = HbBench<K, HBImplicitTree<K>>;
template <typename K>
using HbRegularBench = HbBench<K, HBRegularTree<K>>;

}  // namespace hbtree::bench

#endif  // HBTREE_BENCH_SUPPORT_HB_RUNNER_H_
