// Quickstart: build an HB+-tree, run point lookups through the
// heterogeneous CPU-GPU pipeline, run a range query, and apply a batch
// update — the whole public API in one file.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "gpusim/device.h"
#include "hybrid/batch_update.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_regular.h"
#include "sim/platform.h"
#include "workload/paper.h"

using namespace hbtree;

int main() {
  // 1. A simulated heterogeneous platform: Xeon E5-2665 + GTX 780.
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  PageRegistry registry;  // tracks page sizes for the TLB model

  // 2. Build a regular (updatable) HB+-tree over 1M key-value pairs.
  //    The inner-node segment is mirrored into GPU memory; leaves stay in
  //    host memory.
  auto data = workload::GenerateDataset<Key64>(1'000'000, /*seed=*/7);
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.8;  // leave room for inserts
  HBRegularTree<Key64> tree(config, &registry, &device, &transfer);
  if (!tree.Build(data)) {
    std::fprintf(stderr, "I-segment does not fit in GPU memory\n");
    return 1;
  }
  std::printf("built: %zu pairs, height %d, I-segment %.1f MB (on GPU), "
              "L-segment %.1f MB (host)\n",
              tree.host_tree().size(), tree.host_tree().height(),
              tree.i_segment_bytes() / 1e6,
              tree.host_tree().l_segment_bytes() / 1e6);

  // 3. Point lookups through the CPU-GPU pipeline: queries travel to the
  //    GPU in buckets, the GPU resolves all inner levels, the CPU
  //    finishes in the leaves.
  auto queries = workload::MakeLookupQueries(data, /*seed=*/8);
  queries.resize(100'000);
  PipelineConfig pipeline;
  pipeline.bucket_size = 16 * 1024;
  pipeline.cpu_queries_per_us = 200;  // see bench_support/calibrate.h
  std::vector<LookupResult<Key64>> results;
  PipelineStats stats = RunSearchPipeline(tree, queries.data(),
                                          queries.size(), pipeline,
                                          &results);
  std::size_t hits = 0;
  for (const auto& r : results) hits += r.found;
  std::printf("pipeline: %zu/%zu hits, %.0f MQPS (simulated platform), "
              "GPU did %llu warp launches worth %llu memory transactions\n",
              hits, results.size(), stats.mqps,
              static_cast<unsigned long long>(stats.kernel.warps_executed),
              static_cast<unsigned long long>(
                  stats.kernel.memory_transactions));

  // 4. A range query (CPU API; the leaf chain makes scans sequential).
  KeyValue<Key64> window[8];
  int got = tree.host_tree().RangeScan(data[1234].key, 8, window);
  std::printf("range scan from key %llu: %d pairs, first value %llu\n",
              static_cast<unsigned long long>(data[1234].key), got,
              static_cast<unsigned long long>(window[0].value));

  // 5. Batch update: parallel in host memory, then one I-segment sync.
  auto batch = workload::MakeUpdateBatch<Key64>(
      data, 50'000, /*insert_fraction=*/0.5, /*seed=*/9);
  BatchUpdateConfig update_config;
  BatchUpdateStats update_stats =
      RunBatchUpdate(tree, batch, UpdateMethod::kAsyncParallel,
                     update_config);
  std::printf("batch update: %llu applied (%llu structural), I-segment "
              "re-sync %.2f ms\n",
              static_cast<unsigned long long>(update_stats.applied),
              static_cast<unsigned long long>(update_stats.structural),
              update_stats.sync_us / 1e3);

  // The device mirror is consistent again: re-run a pipeline search.
  RunSearchPipeline(tree, queries.data(), 16384, pipeline, &results);
  std::printf("post-update pipeline search OK (%zu results)\n",
              results.size());
  return 0;
}
