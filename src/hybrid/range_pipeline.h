#ifndef HBTREE_HYBRID_RANGE_PIPELINE_H_
#define HBTREE_HYBRID_RANGE_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/types.h"
#include "hybrid/bucket_pipeline.h"

namespace hbtree {

/// Heterogeneous range queries (Section 6.4, Figure 17).
///
/// Same division of labour as point lookups: the GPU resolves every range
/// query's *start position* through the mirrored I-segment; the CPU then
/// scans the leaf chain sequentially — which is where range queries spend
/// their time, and why the HB+-tree's advantage shrinks as ranges grow.
///
/// Results land in a flat pair buffer: query i's matches are
/// `pairs[i * max_matches .. i * max_matches + counts[i])`.

namespace range_internal {

/// Range queries through the lookup pipeline's bucket loop and adapters:
/// the kernel resolves each start key's position, T4 scans the leaf
/// chain, traced as the `scan` stage. Buckets stay unsorted and unsplit
/// (no sort charge, no pre-descent), so every bucket's T1..T4 are those
/// of a plain kernel launch over its start keys.
template <typename K, typename Adapter>
PipelineStats RunRange(typename Adapter::Tree& tree,
                       const RangeQuery<K>* queries, std::size_t count,
                       int max_matches, const PipelineConfig& config,
                       std::vector<KeyValue<K>>* pairs,
                       std::vector<int>* counts) {
  HBTREE_CHECK_MSG(max_matches > 0, "max_matches must be positive");
  const std::size_t stride = static_cast<std::size_t>(max_matches);
  if (pairs != nullptr) pairs->resize(count * stride);
  if (counts != nullptr) counts->assign(count, 0);
  std::vector<K> first_keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    first_keys[i] = queries[i].first_key;
  }
  // A counts-only call still scans every match into a scratch row.
  std::vector<KeyValue<K>> scratch(pairs != nullptr ? 0 : stride);
  PipelineConfig unsplit = config;
  unsplit.cpu_descend_levels = 0;
  unsplit.cpu_split_ratio = 1.0;

  PipelineStats stats;
  pipeline_internal::CheckPipelineOk(
      pipeline_internal::RunPipelineChecked<K, Adapter>(
          tree, first_keys.data(), count, unsplit, /*sort=*/false,
          &obs::PipelineHeat::scan,
          [&](std::size_t i, ResultWord word, K first_key, auto* tracer) {
            const int want = std::min(max_matches, queries[i].match_count);
            KeyValue<K>* out =
                pairs != nullptr ? pairs->data() + i * stride : scratch.data();
            const int got =
                Adapter::Scan(tree, word, first_key, want, out, tracer);
            if (counts != nullptr) (*counts)[i] = got;
          },
          &stats));
  return stats;
}

}  // namespace range_internal

/// Runs heterogeneous range queries on an implicit HB+-tree. Each query
/// returns up to `max_matches` pairs (and no more than its own
/// match_count); `config.cpu_queries_per_us` should be calibrated for the
/// scan length (see bench/fig17_range_queries).
template <typename K>
PipelineStats RunRangePipeline(HBImplicitTree<K>& tree,
                               const RangeQuery<K>* queries,
                               std::size_t count, int max_matches,
                               const PipelineConfig& config,
                               std::vector<KeyValue<K>>* pairs = nullptr,
                               std::vector<int>* counts = nullptr) {
  return range_internal::RunRange<K, pipeline_internal::ImplicitAdapter<K>>(
      tree, queries, count, max_matches, config, pairs, counts);
}

/// Regular-tree variant.
template <typename K>
PipelineStats RunRangePipeline(HBRegularTree<K>& tree,
                               const RangeQuery<K>* queries,
                               std::size_t count, int max_matches,
                               const PipelineConfig& config,
                               std::vector<KeyValue<K>>* pairs = nullptr,
                               std::vector<int>* counts = nullptr) {
  return range_internal::RunRange<K, pipeline_internal::RegularAdapter<K>>(
      tree, queries, count, max_matches, config, pairs, counts);
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_RANGE_PIPELINE_H_
