#include "hybrid/batch_update.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "core/workload.h"
#include "hybrid/bucket_pipeline.h"
#include "sim/platform.h"

namespace hbtree {
namespace {

struct Fixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

/// Parameterized over (method, insert fraction): every combination must
/// leave the host tree exactly matching a reference map and the device
/// mirror consistent.
class BatchUpdateTest
    : public ::testing::TestWithParam<std::tuple<UpdateMethod, double>> {};

TEST_P(BatchUpdateTest, TreeMatchesReferenceModelAfterBatch) {
  const auto [method, insert_fraction] = GetParam();
  Fixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.75;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(40000, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));

  std::map<Key64, Key64> model;
  for (const auto& kv : data) model[kv.key] = kv.value;

  auto batch = MakeUpdateBatch<Key64>(data, 6000, insert_fraction,
                                      /*seed=*/2);
  for (const auto& update : batch) {
    if (update.kind == UpdateQuery<Key64>::Kind::kInsert) {
      model.emplace(update.pair.key, update.pair.value);
    } else {
      model.erase(update.pair.key);
    }
  }

  BatchUpdateConfig uconfig;
  uconfig.real_threads = 3;
  BatchUpdateStats stats = RunBatchUpdate(tree, batch, method, uconfig);
  tree.host_tree().Validate();
  EXPECT_EQ(tree.host_tree().size(), model.size());
  EXPECT_EQ(stats.applied, batch.size());  // batch entries never collide

  // Spot-check the host tree against the reference.
  std::size_t i = 0;
  for (const auto& [key, value] : model) {
    if (++i % 17 != 0) continue;
    auto result = tree.host_tree().Search(key);
    ASSERT_TRUE(result.found) << key;
    ASSERT_EQ(result.value, value);
  }

  // Device mirror agrees: pipeline search over the batch keys.
  std::vector<Key64> probes;
  for (const auto& update : batch) probes.push_back(update.pair.key);
  probes.resize(probes.size() / 4 * 4);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  std::vector<LookupResult<Key64>> results;
  RunSearchPipeline(tree, probes.data(), probes.size(), pconfig, &results);
  for (std::size_t j = 0; j < probes.size(); ++j) {
    ASSERT_EQ(results[j].found, model.count(probes[j]) > 0) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndMixes, BatchUpdateTest,
    ::testing::Combine(::testing::Values(UpdateMethod::kAsyncSingleThread,
                                         UpdateMethod::kAsyncParallel,
                                         UpdateMethod::kSynchronized),
                       ::testing::Values(0.0, 0.5, 1.0)),
    [](const auto& info) {
      return std::string(UpdateMethodName(std::get<0>(info.param))) ==
                     "async-1t"
                 ? "Async1T_" +
                       std::to_string(
                           static_cast<int>(std::get<1>(info.param) * 100))
             : std::string(UpdateMethodName(std::get<0>(info.param))) ==
                       "async-parallel"
                 ? "AsyncPar_" +
                       std::to_string(
                           static_cast<int>(std::get<1>(info.param) * 100))
                 : "Sync_" + std::to_string(static_cast<int>(
                                 std::get<1>(info.param) * 100));
    });

TEST(BatchUpdate, StructuralShareIsTinyWithBigLeaves) {
  // Section 5.6: "more than 99% of the update queries can be resolved"
  // without splits or merges thanks to the 256-entry big leaves.
  Fixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.7;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(200000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));
  auto batch = MakeUpdateBatch<Key64>(data, 16384, /*insert_fraction=*/0.5,
                                      /*seed=*/4);
  BatchUpdateConfig uconfig;
  BatchUpdateStats stats =
      RunBatchUpdate(tree, batch, UpdateMethod::kAsyncParallel, uconfig);
  EXPECT_LT(static_cast<double>(stats.structural) / stats.queries, 0.01);
}

TEST(BatchUpdate, ParallelWithManyThreadsMatchesSingleThread) {
  // Concurrency stress: the striped-lock parallel phase must produce the
  // same final tree as the single-threaded path.
  auto data = GenerateDataset<Key64>(60000, /*seed=*/5);
  auto batch = MakeUpdateBatch<Key64>(data, 20000, /*insert_fraction=*/0.6,
                                      /*seed=*/6);
  std::vector<std::size_t> sizes;
  for (int threads : {1, 2, 4, 8}) {
    Fixture fx;
    HBRegularTree<Key64>::Config config;
    config.tree.leaf_fill = 0.7;
    HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                              &fx.transfer);
    ASSERT_TRUE(tree.Build(data));
    BatchUpdateConfig uconfig;
    uconfig.real_threads = threads;
    RunBatchUpdate(tree, batch, UpdateMethod::kAsyncParallel, uconfig);
    tree.host_tree().Validate();
    sizes.push_back(tree.host_tree().size());
    for (std::size_t i = 0; i < batch.size(); i += 37) {
      const auto& update = batch[i];
      bool found = tree.host_tree().Search(update.pair.key).found;
      ASSERT_EQ(found, update.kind == UpdateQuery<Key64>::Kind::kInsert);
    }
  }
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[0]);
  }
}

TEST(BatchUpdate, TimingModelOrdering) {
  // Async-parallel must be modelled faster than async-single-thread. With
  // the delta-first mirror sync turned off (margin 0, the paper's method
  // that Figs 13 and 14 measure), every async batch that dirties a hot
  // fragment ends with one bulk I-segment upload.
  Fixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.7;
  config.delta_sync_cost_margin = 0;
  auto data = GenerateDataset<Key64>(100000, /*seed=*/7);
  auto batch = MakeUpdateBatch<Key64>(data, 32768, /*insert_fraction=*/0.5,
                                      /*seed=*/8);
  double single_us = 0, parallel_us = 0;
  for (UpdateMethod method :
       {UpdateMethod::kAsyncSingleThread, UpdateMethod::kAsyncParallel}) {
    Fixture local;
    HBRegularTree<Key64> tree(config, &local.registry, &local.device,
                              &local.transfer);
    ASSERT_TRUE(tree.Build(data));
    BatchUpdateConfig uconfig;
    BatchUpdateStats stats = RunBatchUpdate(tree, batch, method, uconfig);
    if (method == UpdateMethod::kAsyncSingleThread) {
      single_us = stats.update_us;
    } else {
      parallel_us = stats.update_us;
    }
    ASSERT_GT(stats.modified_nodes, 0u);
    EXPECT_EQ(stats.full_syncs, 1u);
    EXPECT_EQ(stats.delta_syncs, 0u);
    EXPECT_EQ(stats.sync_us,
              local.transfer.HostToDeviceUs(tree.i_segment_bytes()));
  }
  EXPECT_GT(single_us, 2.0 * parallel_us);
}

TEST(MixedWorkload, SyncDecaysFasterWithUpdateShare) {
  auto data = GenerateDataset<Key64>(150000, /*seed=*/9);
  double ratio_low = 0, ratio_high = 0;
  for (double update_ratio : {0.1, 0.8}) {
    double mops[2];
    int i = 0;
    for (UpdateMethod method :
         {UpdateMethod::kSynchronized, UpdateMethod::kAsyncParallel}) {
      Fixture fx;
      HBRegularTree<Key64>::Config config;
      config.tree.leaf_fill = 0.95;  // near-full lines: frequent inner edits
      HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                                &fx.transfer);
      ASSERT_TRUE(tree.Build(data));
      auto searches = MakeLookupQueries(data, /*seed=*/10);
      searches.resize(1 << 15);
      auto updates = MakeUpdateBatch<Key64>(
          data, static_cast<std::size_t>((1 << 15) * update_ratio) + 1, 0.5,
          /*seed=*/11);
      BatchUpdateConfig uconfig;
      MixedWorkloadStats stats = RunMixedWorkload(
          tree, searches, updates, update_ratio, method, uconfig, 0.1);
      mops[i++] = stats.mops();
    }
    if (update_ratio < 0.5) {
      ratio_low = mops[0] / mops[1];
    } else {
      ratio_high = mops[0] / mops[1];
    }
  }
  EXPECT_LT(ratio_high, ratio_low);  // sync hurts more at high update share
}

}  // namespace
}  // namespace hbtree
