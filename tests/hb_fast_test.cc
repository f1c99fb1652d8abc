#include "hybrid/hb_fast.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hybrid/bucket_pipeline.h"
#include "sim/platform.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

struct Fixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

template <typename K>
class HbFastTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(HbFastTypedTest, KeyTypes);

TYPED_TEST(HbFastTypedTest, KernelMatchesHostLowerBound) {
  using K = TypeParam;
  Fixture fx;
  typename HBFastTree<K>::Config config;
  HBFastTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(123456, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));

  constexpr std::uint32_t kCount = 3000;
  auto queries = workload::MakeDistributedQueries<K>(
      kCount, workload::Distribution::kUniform, /*seed=*/2);
  for (std::size_t i = 0; i < kCount; i += 2) {
    queries[i] = data[(i * 997) % data.size()].key;
  }

  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(K));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(ResultWord));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(K));
  auto params = tree.MakeKernelParams(q_dev, r_dev, kCount);
  gpu::KernelStats stats = RunFastSearch<K>(fx.device, params);
  std::vector<ResultWord> results(kCount);
  std::memcpy(results.data(), fx.device.HostView(r_dev),
              kCount * sizeof(ResultWord));
  for (std::uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(results[i], tree.host_tree().LowerBoundIndex(queries[i])) << i;
  }
  // One thread per query: 32 queries per warp.
  EXPECT_EQ(stats.warps_executed, (kCount + 31) / 32);
}

TYPED_TEST(HbFastTypedTest, PipelineMatchesHostSearch) {
  using K = TypeParam;
  Fixture fx;
  typename HBFastTree<K>::Config config;
  HBFastTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(80000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));

  auto queries = workload::MakeLookupQueries(data, /*seed=*/4);
  queries.resize(20000);
  PipelineConfig pconfig;
  pconfig.bucket_size = 2048;
  pconfig.cpu_queries_per_us = 10;
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), pconfig, &results);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = tree.host_tree().Search(queries[i]);
    ASSERT_EQ(results[i].found, expect.found) << i;
    ASSERT_EQ(results[i].value, expect.value) << i;
  }
}

TYPED_TEST(HbFastTypedTest, LoadBalancedPipelineIsCorrect) {
  using K = TypeParam;
  Fixture fx;
  typename HBFastTree<K>::Config config;
  HBFastTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(200000, /*seed=*/5);
  ASSERT_TRUE(tree.Build(data));
  ASSERT_GE(tree.host_tree().block_levels(), 3);

  auto queries = workload::MakeLookupQueries(data, /*seed=*/6);
  queries.resize(8192);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  pconfig.cpu_descend_levels = 1;
  pconfig.cpu_split_ratio = 0.5;
  pconfig.cpu_descend_us_per_level = 0.001;
  pconfig.buckets_in_flight = 3;
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), pconfig, &results);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].found) << i;
  }
}

TEST(HbFast, UncoalescedKernelIssuesMoreTransactionsThanTeamSearch) {
  // The framework ablation: FAST's scalar descent issues roughly one
  // transaction per lane per level, where the HB+-tree team search issues
  // at most 4 per warp per level.
  Fixture fx;
  HBFastTree<Key64>::Config config;
  HBFastTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(500000, /*seed=*/7);
  ASSERT_TRUE(tree.Build(data));

  constexpr std::uint32_t kCount = 4096;
  auto queries = workload::MakeLookupQueries(data, /*seed=*/8);
  queries.resize(kCount);
  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(ResultWord));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));
  auto params = tree.MakeKernelParams(q_dev, r_dev, kCount);
  gpu::KernelStats stats = RunFastSearch<Key64>(fx.device, params);

  // Upper block levels have few distinct blocks (coalescible); the lower
  // half scatters. Expect well above the team-search bound of
  // 4 * levels per warp.
  const double per_warp_level =
      static_cast<double>(stats.memory_transactions) /
      stats.warps_executed / tree.host_tree().block_levels();
  EXPECT_GT(per_warp_level, 6.0);
}

}  // namespace
}  // namespace hbtree
