#ifndef HBTREE_BENCH_SUPPORT_HB_RUNNER_H_
#define HBTREE_BENCH_SUPPORT_HB_RUNNER_H_

#include <vector>

#include "bench_support/calibrate.h"
#include "bench_support/harness.h"
#include "core/status.h"
#include "hybrid/batch_update.h"
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

  /// The pipeline configuration for this tree: its calibrated CPU costs
  /// (PipelineCosts) under the given strategy and bucket size.
  PipelineConfig MakeConfig(
      BucketStrategy strategy = BucketStrategy::kDoubleBuffered,
      int bucket_size = 16 * 1024) const {
    PipelineConfig config = PipelineCosts(rates_, sim_->spec);
    config.bucket_size = bucket_size;
    config.strategy = strategy;
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

/// Applies `batch` with `method` to a fresh regular HB+-tree built from
/// `data` at 70% leaf fill, with the per-update cost calibrated on
/// `probes` — one point of the update figures (13, 14). A
/// `delta_sync_cost_margin` of 0 ends every asynchronous batch that
/// dirties a hot fragment with the paper's one bulk I-segment upload.
template <typename K>
BatchUpdateStats RunUpdateBatch(const sim::PlatformSpec& platform,
                                const std::vector<KeyValue<K>>& data,
                                const std::vector<K>& probes,
                                const std::vector<UpdateQuery<K>>& batch,
                                UpdateMethod method,
                                double delta_sync_cost_margin,
                                std::size_t* i_segment_bytes = nullptr) {
  SimPlatform sim(platform);
  PageRegistry registry;
  typename HBRegularTree<K>::Config config;
  config.tree.leaf_fill = 0.7;
  config.delta_sync_cost_margin = delta_sync_cost_margin;
  HBRegularTree<K> tree(config, &registry, &sim.device, &sim.transfer);
  HBTREE_CHECK(tree.Build(data));
  if (i_segment_bytes != nullptr) *i_segment_bytes = tree.i_segment_bytes();
  BatchUpdateConfig uconfig;
  uconfig.real_threads = 2;
  uconfig.model_threads = platform.cpu.threads;
  uconfig.cpu_update_us =
      EstimateUpdateCostUs(tree.host_tree(), probes, platform, registry);
  return RunBatchUpdate(tree, batch, method, uconfig);
}

template <typename K>
using HbImplicitBench = HbBench<K, HBImplicitTree<K>>;
template <typename K>
using HbRegularBench = HbBench<K, HBRegularTree<K>>;

}  // namespace hbtree::bench

#endif  // HBTREE_BENCH_SUPPORT_HB_RUNNER_H_
