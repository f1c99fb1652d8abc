#ifndef HBTREE_BENCH_SUPPORT_CALIBRATE_H_
#define HBTREE_BENCH_SUPPORT_CALIBRATE_H_

#include <cstdint>
#include <vector>

#include "core/simd.h"
#include "core/types.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "hybrid/bucket_pipeline.h"
#include "mem/page_allocator.h"
#include "sim/cpu_cost_model.h"
#include "sim/platform.h"

namespace hbtree::bench {

/// Calibration helpers: run *traced* searches through the platform
/// simulator and turn the measured memory profile into the modelled rates
/// the figure harnesses and the bucket pipeline consume.
///
/// Every helper warms the cache/TLB simulators first and measures steady
/// state, mirroring how the paper measures sustained throughput.

struct ModelOptions {
  int threads = 0;          // 0 = the platform's hardware thread count
  int pipeline_depth = 16;  // software pipeline depth (Section 4.2)
  std::size_t warmup = std::size_t{1} << 16;
  std::size_t measured = std::size_t{1} << 17;
};

struct SearchMeasurement {
  sim::CpuTracer::Profile profile;
  sim::CpuEstimate estimate;
};

/// Generic traced measurement: `op(tracer, i)` performs the i-th query
/// (bracketing it with OnQueryStart/End itself or relying on the callee).
/// Queries [0, warmup) warm the simulated caches and TLB, the next
/// `measured` ones are profiled.
template <typename Fn>
SearchMeasurement MeasureCpuOp(const sim::PlatformSpec& platform,
                               const PageRegistry& registry,
                               NodeSearchAlgo algo,
                               const ModelOptions& options, Fn&& op) {
  sim::CpuTracer tracer(platform.cpu, &registry);
  for (std::size_t i = 0; i < options.warmup; ++i) op(tracer, i);
  tracer.ResetStats();
  for (std::size_t i = 0; i < options.measured; ++i) {
    op(tracer, options.warmup + i);
  }
  sim::CpuExecutionParams params;
  params.threads =
      options.threads > 0 ? options.threads : platform.cpu.threads;
  params.pipeline_depth = options.pipeline_depth;
  params.compute_ns_per_access = sim::ComputeNsPerAccess(platform.cpu, algo);
  SearchMeasurement m;
  m.profile = tracer.profile();
  m.estimate = sim::EstimateCpuThroughput(platform.cpu, m.profile, params);
  return m;
}

/// Full-search measurement for any tree exposing
/// `Search(key, Tracer*)` — the CPU-optimized trees and FAST.
template <typename Tree, typename K>
SearchMeasurement MeasureCpuSearch(const Tree& tree,
                                   const std::vector<K>& queries,
                                   const sim::PlatformSpec& platform,
                                   const PageRegistry& registry,
                                   NodeSearchAlgo algo,
                                   const ModelOptions& options = {}) {
  HBTREE_CHECK(!queries.empty());
  return MeasureCpuOp(platform, registry, algo, options,
                      [&](sim::CpuTracer& tracer, std::size_t i) {
                        tree.Search(queries[i % queries.size()], &tracer);
                      });
}

/// The leaf handle the GPU hands the CPU for `key` (Section 5.4, step 4):
/// a leaf line of the implicit tree, a (last-inner, line) position of the
/// regular one. Untraced — the inner descent is the GPU's share.
template <typename K>
std::uint64_t LeafOf(const ImplicitBTree<K>& tree, K key) {
  return tree.FindLeafLine(key);
}
template <typename K>
typename RegularBTree<K>::LeafPosition LeafOf(const RegularBTree<K>& tree,
                                              K key) {
  return tree.FindLeafPosition(key);
}

/// Inner levels the CPU may descend under load balancing (Section 5.5):
/// every implicit level, every regular level but the last, whose node
/// the leaf step reads anyway.
template <typename K>
int DescendableLevels(const ImplicitBTree<K>& tree) {
  return tree.height();
}
template <typename K>
int DescendableLevels(const RegularBTree<K>& tree) {
  return tree.height() - 1;
}

/// CPU rates needed by the heterogeneous pipeline (Section 5.4/5.5):
/// the leaf-search rate (queries per µs — numerically equal to MQPS) and
/// the per-level cost of a partial inner descent.
struct HbCpuRates {
  double leaf_queries_per_us = 1.0;
  double descend_us_per_level = 0.0;
  /// Modelled CPU cost (µs per query) of descending exactly `d` levels
  /// from the root; index 0 is 0. The top levels live in cache, so
  /// cost[d] grows much slower than d * (average level cost) — this is
  /// what makes the load-balancing scheme profitable (Section 5.5).
  std::vector<double> descend_us_by_depth = {0.0};
};

/// The leaf-step rate of an HB+-tree's host tree (implicit or regular),
/// queries per µs: one traced leaf-line search per query.
template <typename Tree, typename K>
double MeasureLeafRate(const Tree& tree, const std::vector<K>& queries,
                       const sim::PlatformSpec& platform,
                       const PageRegistry& registry,
                       const ModelOptions& options = {}) {
  HBTREE_CHECK(!queries.empty());
  return MeasureCpuOp(platform, registry, tree.config().search_algo, options,
                      [&](sim::CpuTracer& tracer, std::size_t i) {
                        const K q = queries[i % queries.size()];
                        const auto leaf = LeafOf(tree, q);
                        tracer.OnQueryStart();
                        tree.SearchLeafLine(leaf, q, &tracer);
                        tracer.OnQueryEnd();
                      })
      .estimate.mqps;
}

/// Calibrates an HB+-tree's host tree (implicit or regular): the leaf
/// rate (MeasureLeafRate), and every descendable depth's own traced
/// partial descent on a quarter-size sample, which keeps calibration
/// cheap.
template <typename Tree, typename K>
HbCpuRates CalibrateHbCpuRates(const Tree& tree,
                               const std::vector<K>& queries,
                               const sim::PlatformSpec& platform,
                               const PageRegistry& registry,
                               const ModelOptions& options = {}) {
  const NodeSearchAlgo algo = tree.config().search_algo;
  const std::size_t total = queries.size();
  HbCpuRates rates;
  rates.leaf_queries_per_us =
      MeasureLeafRate(tree, queries, platform, registry, options);
  const int levels = DescendableLevels(tree);
  ModelOptions depth_options = options;
  depth_options.warmup = options.warmup / 4;
  depth_options.measured = options.measured / 4;
  for (int depth = 1; depth <= levels; ++depth) {
    const double mqps =
        MeasureCpuOp(platform, registry, algo, depth_options,
                     [&](sim::CpuTracer& tracer, std::size_t i) {
                       tracer.OnQueryStart();
                       tree.DescendLevels(queries[i % total], depth, &tracer);
                       tracer.OnQueryEnd();
                     })
            .estimate.mqps;
    rates.descend_us_by_depth.push_back(1.0 / mqps);
  }
  if (levels > 0) {
    rates.descend_us_per_level = rates.descend_us_by_depth.back() / levels;
  }
  return rates;
}

/// The bucket pipeline's CPU cost fields from calibrated rates. Each
/// thread pays the platform's per-query hybrid overhead (bucket
/// management, reading the intermediate results, writing outputs) on top
/// of the traced leaf search; the descent costs pass through unchanged.
inline PipelineConfig PipelineCosts(const HbCpuRates& rates,
                                    const sim::PlatformSpec& platform) {
  const double threads = platform.cpu.threads;
  PipelineConfig config;
  config.cpu_queries_per_us =
      threads * 1e3 / (threads * 1e3 / rates.leaf_queries_per_us +
                       platform.cpu.hybrid_overhead_ns);
  config.cpu_descend_us_per_level = rates.descend_us_per_level;
  config.cpu_descend_us_by_depth = rates.descend_us_by_depth;
  return config;
}

/// Modelled single-thread cost of one update query (inner descent + leaf
/// edit), µs — feeds the Section 5.6 update experiments.
template <typename K>
double EstimateUpdateCostUs(const RegularBTree<K>& tree,
                            const std::vector<K>& probe_keys,
                            const sim::PlatformSpec& platform,
                            const PageRegistry& registry,
                            const ModelOptions& options = {}) {
  ModelOptions single = options;
  single.threads = 1;
  single.pipeline_depth = 1;  // updates are dependent, not pipelined
  SearchMeasurement m = MeasureCpuSearch(tree, probe_keys, platform,
                                         registry,
                                         tree.config().search_algo, single);
  // An update pays the search plus roughly half a leaf-line rewrite; the
  // factor matches the paper's observation that updates run close to
  // (but below) search speed.
  return 1.3 / m.estimate.mqps;
}

/// Streaming-bandwidth model of the implicit tree's rebuild phases
/// (Figure 15): merging the update batch into the sorted array and
/// rewriting both segments are bandwidth-bound passes over the data.
struct RebuildModel {
  double l_build_us = 0;    // merge + L-segment rewrite
  double i_build_us = 0;    // I-segment rewrite
  double transfer_us = 0;   // I-segment PCIe upload
};

inline RebuildModel ModelImplicitRebuild(std::size_t l_bytes,
                                         std::size_t i_bytes,
                                         const sim::PlatformSpec& platform) {
  RebuildModel model;
  const double bytes_per_us = platform.cpu.dram_bandwidth_gbps * 1e3;
  // Rebuilding is several bandwidth-bound passes over the data: merging
  // the sorted update batch into the pair array (read old + batch, write
  // new), re-permuting values, and writing the leaf lines — about ten
  // L-segment-sized passes end to end.
  model.l_build_us = 10.0 * l_bytes / bytes_per_us;
  // I-segment: read children maxima per level, write nodes — plus one
  // pass over the leaf level for the bottom separators.
  model.i_build_us = (3.0 * i_bytes + 1.0 * l_bytes / 4) / bytes_per_us;
  model.transfer_us = platform.pcie.transfer_init_us +
                      i_bytes / (platform.pcie.bandwidth_h2d_gbps * 1e3);
  return model;
}

}  // namespace hbtree::bench

#endif  // HBTREE_BENCH_SUPPORT_CALIBRATE_H_
