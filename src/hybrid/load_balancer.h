#ifndef HBTREE_HYBRID_LOAD_BALANCER_H_
#define HBTREE_HYBRID_LOAD_BALANCER_H_

#include <algorithm>
#include <cstdint>

#include "hybrid/bucket_pipeline.h"

namespace hbtree {

/// Result of the load-balance discovery (Algorithm 1, Section 5.5).
struct LoadBalanceSetting {
  int d = 0;        // inner levels searched by the CPU
  double r = 1.0;   // fraction of each bucket descending only D levels
  double sample_gpu_us = 0;
  double sample_cpu_us = 0;
};

/// Runs the paper's discovery algorithm: starting from (D = 0, R = 1) —
/// maximum GPU load — it raises D while the GPU is the bottleneck, then
/// binary-searches R for four steps. When the first (0, 1) sample is not
/// GPU-bound there is no GPU work to move, and the discovery keeps
/// (0, 1): the search would otherwise start at R = 1/2 and, after four
/// +-1/2^k steps, could never return to R = 1. `getSample` is realized by
/// running the pipeline over `sample_queries` and reading the average
/// per-bucket GPU and CPU times (PipelineStats::t2_us and t4_us).
///
/// `base` must carry the platform-derived CPU rates
/// (cpu_queries_per_us, cpu_descend_us_per_level); buckets_in_flight is
/// forced to 3 as in the load-balanced HB+-tree.
template <typename HB, typename K>
LoadBalanceSetting DiscoverLoadBalance(HB& tree, const K* sample_queries,
                                       std::size_t count,
                                       PipelineConfig base) {
  base.buckets_in_flight = 3;
  const int height = tree.host_tree().height();
  const int max_d = std::max(0, height - 2);

  // Degenerate cases: with no sample there is nothing to measure, and a
  // tree of height < 2 has no inner level the CPU could take over while
  // leaving the GPU at least one (the pipeline disables balancing for
  // such trees too). Return the all-GPU default instead of running the
  // binary search on meaningless (zero) samples, which would drift R
  // away from 1 and prescribe partial descents no component executes.
  if (count == 0 || height < 2) {
    return LoadBalanceSetting{};
  }

  auto get_sample = [&](int d, double r) {
    PipelineConfig config = base;
    config.cpu_descend_levels = d;
    config.cpu_split_ratio = r;
    PipelineStats stats =
        RunSearchPipeline(tree, sample_queries, count, config);
    return stats;
  };

  LoadBalanceSetting setting;
  setting.d = 0;
  setting.r = 1.0;
  PipelineStats sample = get_sample(setting.d, setting.r);
  if (sample.t2_us <= sample.t4_us) {
    setting.sample_gpu_us = sample.t2_us;
    setting.sample_cpu_us = sample.t4_us;
    return setting;
  }
  while (sample.t2_us > sample.t4_us && setting.d < max_d) {
    ++setting.d;
    sample = get_sample(setting.d, setting.r);
  }
  setting.r = 0.5;
  for (int step = 2; step <= 5; ++step) {
    sample = get_sample(setting.d, setting.r);
    // Convention here: R is the fraction descending only D levels on the
    // CPU, so a *smaller* R moves work to the CPU. (The paper's text and
    // its Equation 4 use opposite conventions for R; we follow the text
    // and adjust the update direction accordingly.)
    if (sample.t2_us > sample.t4_us) {
      setting.r -= 1.0 / (1 << step);
    } else {
      setting.r += 1.0 / (1 << step);
    }
  }
  // The ±1/2^step walk keeps R in (0, 1) for any sample sequence, and the
  // raise-D loop stops at max_d = height - 2; clamp anyway so a future
  // change to either loop cannot hand the pipeline an out-of-range
  // setting (it clamps too, but a silently-clamped discovery result
  // would misreport what was discovered).
  setting.d = std::clamp(setting.d, 0, max_d);
  setting.r = std::clamp(setting.r, 0.0, 1.0);
  setting.sample_gpu_us = sample.t2_us;
  setting.sample_cpu_us = sample.t4_us;
  return setting;
}

/// Applies a discovered setting to a pipeline configuration.
inline PipelineConfig WithLoadBalance(PipelineConfig config,
                                      const LoadBalanceSetting& setting) {
  config.cpu_descend_levels = setting.d;
  config.cpu_split_ratio = setting.r;
  config.buckets_in_flight = 3;
  return config;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_LOAD_BALANCER_H_
