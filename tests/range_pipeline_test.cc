#include "hybrid/range_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
class RangePipelineTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(RangePipelineTypedTest, KeyTypes);

TYPED_TEST(RangePipelineTypedTest, ImplicitMatchesHostRangeScan) {
  using K = TypeParam;
  Fixture fx;
  typename HBImplicitTree<K>::Config config;
  HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(60000, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));

  constexpr int kMatches = 16;
  auto rq = workload::MakeRangeQueries(data, 5000, kMatches, /*seed=*/2);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  std::vector<KeyValue<K>> pairs;
  std::vector<int> counts;
  PipelineStats stats = RunRangePipeline(tree, rq.data(), rq.size(),
                                         kMatches, pconfig, &pairs, &counts);
  EXPECT_EQ(stats.queries, rq.size());
  KeyValue<K> expect[kMatches];
  for (std::size_t i = 0; i < rq.size(); ++i) {
    int expect_count = tree.host_tree().RangeScan(rq[i].first_key, kMatches,
                                                  expect);
    ASSERT_EQ(counts[i], expect_count) << i;
    for (int j = 0; j < expect_count; ++j) {
      ASSERT_EQ(pairs[i * kMatches + j], expect[j]) << i << "," << j;
    }
  }
}

TYPED_TEST(RangePipelineTypedTest, RegularMatchesHostRangeScan) {
  using K = TypeParam;
  Fixture fx;
  typename HBRegularTree<K>::Config config;
  config.tree.leaf_fill = 0.8;
  HBRegularTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(60000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));

  constexpr int kMatches = 8;
  auto rq = workload::MakeRangeQueries(data, 4000, kMatches, /*seed=*/4);
  PipelineConfig pconfig;
  pconfig.bucket_size = 512;
  pconfig.cpu_queries_per_us = 10;
  std::vector<KeyValue<K>> pairs;
  std::vector<int> counts;
  RunRangePipeline(tree, rq.data(), rq.size(), kMatches, pconfig, &pairs,
                   &counts);
  KeyValue<K> expect[kMatches];
  for (std::size_t i = 0; i < rq.size(); ++i) {
    int expect_count = tree.host_tree().RangeScan(rq[i].first_key, kMatches,
                                                  expect);
    ASSERT_EQ(counts[i], expect_count) << i;
    for (int j = 0; j < expect_count; ++j) {
      ASSERT_EQ(pairs[i * kMatches + j], expect[j]);
    }
  }
}

TEST(RangePipeline, CountsOnlyCallReturnsTheFullCallsCounts) {
  Fixture fx;
  HBImplicitTree<Key64>::Config implicit_config;
  HBImplicitTree<Key64> implicit(implicit_config, &fx.registry, &fx.device,
                                 &fx.transfer);
  HBRegularTree<Key64>::Config regular_config;
  HBRegularTree<Key64> regular(regular_config, &fx.registry, &fx.device,
                               &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(40000, /*seed=*/6);
  ASSERT_TRUE(implicit.Build(data));
  ASSERT_TRUE(regular.Build(data));

  constexpr int kMatches = 12;
  auto rq = workload::MakeRangeQueries(data, 3000, kMatches, /*seed=*/7);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  auto expect_same_counts = [&](auto& tree) {
    std::vector<KeyValue<Key64>> pairs;
    std::vector<KeyValue<Key64>>* no_pairs = nullptr;
    std::vector<int> full, counts_only;
    RunRangePipeline(tree, rq.data(), rq.size(), kMatches, pconfig, &pairs,
                     &full);
    RunRangePipeline(tree, rq.data(), rq.size(), kMatches, pconfig, no_pairs,
                     &counts_only);
    ASSERT_GT(*std::max_element(full.begin(), full.end()), 1);
    EXPECT_EQ(counts_only, full);
  };
  expect_same_counts(implicit);
  expect_same_counts(regular);
}

TEST(RangePipeline, StartKeysAboveMaximumYieldZeroMatches) {
  Fixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(10000, /*seed=*/5);
  ASSERT_TRUE(tree.Build(data));
  std::vector<RangeQuery<Key64>> rq(256,
                                    {KeyTraits<Key64>::kMax - 1, 4});
  PipelineConfig pconfig;
  pconfig.bucket_size = 128;
  pconfig.cpu_queries_per_us = 10;
  std::vector<KeyValue<Key64>> pairs;
  std::vector<int> counts;
  RunRangePipeline(tree, rq.data(), rq.size(), 4, pconfig, &pairs, &counts);
  for (int count : counts) EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace hbtree
