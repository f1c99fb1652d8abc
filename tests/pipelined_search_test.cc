#include "cpubtree/pipelined_search.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "hybrid/hb_implicit.h"
#include "hybrid/load_balancer.h"
#include "sim/platform.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

/// Property sweep: software-pipelined batch search (Algorithm 2) must
/// return exactly what per-query Search returns, for every pipeline
/// depth, both tree variants, hit and miss queries, and odd batch sizes.
class PipelinedSearchTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(PipelinedSearchTest, ImplicitMatchesPlainSearch) {
  const auto [depth, count] = GetParam();
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(30000, /*seed=*/1);
  tree.Build(data);

  auto queries = workload::MakeDistributedQueries<Key64>(
      count, workload::Distribution::kUniform, /*seed=*/2);
  // Mix in guaranteed hits and the above-maximum edge case.
  for (std::size_t i = 0; i < queries.size(); i += 3) {
    queries[i] = data[(i * 7919) % data.size()].key;
  }
  if (!queries.empty()) queries.back() = KeyTraits<Key64>::kMax - 1;

  std::vector<LookupResult<Key64>> results(queries.size());
  PipelinedSearch(tree, queries.data(), queries.size(), depth,
                  results.data());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = tree.Search(queries[i]);
    ASSERT_EQ(results[i].found, expect.found) << "depth " << depth << " i "
                                              << i;
    ASSERT_EQ(results[i].value, expect.value);
  }
}

TEST_P(PipelinedSearchTest, RegularMatchesPlainSearch) {
  const auto [depth, count] = GetParam();
  PageRegistry registry;
  RegularBTree<Key64>::Config config;
  RegularBTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(30000, /*seed=*/3);
  tree.Build(data);

  auto queries = workload::MakeDistributedQueries<Key64>(
      count, workload::Distribution::kUniform, /*seed=*/4);
  for (std::size_t i = 0; i < queries.size(); i += 3) {
    queries[i] = data[(i * 104729) % data.size()].key;
  }

  std::vector<LookupResult<Key64>> results(queries.size());
  PipelinedSearch(tree, queries.data(), queries.size(), depth,
                  results.data());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = tree.Search(queries[i]);
    ASSERT_EQ(results[i].found, expect.found);
    ASSERT_EQ(results[i].value, expect.value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndSizes, PipelinedSearchTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 16, 64),
                       ::testing::Values(std::size_t{1}, std::size_t{15},
                                         std::size_t{4096},
                                         std::size_t{4097})));

// -- DiscoverLoadBalance regression coverage --------------------------------
//
// The discovery algorithm (Section 5.5, Algorithm 1) assumes a tree with
// at least two inner levels and a non-empty sample. These tests pin the
// degenerate-input behaviour: no out-of-range D may ever escape, and
// meaningless samples must not drift R away from the all-GPU default.

struct LoadBalanceFixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree{config, &registry, &device, &transfer};
  std::vector<KeyValue<Key64>> data;

  void BuildTree(std::size_t n, std::uint64_t seed) {
    data = workload::GenerateDataset<Key64>(n, seed);
    ASSERT_TRUE(tree.Build(data));
  }

  PipelineConfig BaseConfig() const {
    PipelineConfig base;
    base.bucket_size = 512;
    base.cpu_queries_per_us = 20.0;
    base.cpu_descend_us_per_level = 0.01;
    return base;
  }
};

TEST(DiscoverLoadBalanceRegression, EmptySampleReturnsAllGpuDefault) {
  LoadBalanceFixture fx;
  fx.BuildTree(100000, /*seed=*/21);
  auto setting =
      DiscoverLoadBalance(fx.tree, static_cast<const Key64*>(nullptr), 0,
                          fx.BaseConfig());
  EXPECT_EQ(setting.d, 0);
  EXPECT_EQ(setting.r, 1.0);
}

TEST(DiscoverLoadBalanceRegression, TinyTreeHasNoLevelToShift) {
  LoadBalanceFixture fx;
  // A handful of keys fit under a single inner level (height < 2):
  // max_d == 0, so discovery must stay at the all-GPU setting rather
  // than prescribing partial descents no component can execute.
  fx.BuildTree(16, /*seed=*/22);
  ASSERT_LT(fx.tree.host_tree().height(), 2);
  std::vector<Key64> queries(256);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = fx.data[i % fx.data.size()].key;
  }
  auto setting = DiscoverLoadBalance(fx.tree, queries.data(), queries.size(),
                                     fx.BaseConfig());
  EXPECT_EQ(setting.d, 0);
  EXPECT_EQ(setting.r, 1.0);
}

TEST(DiscoverLoadBalanceRegression, DiscoveredSettingStaysInRange) {
  LoadBalanceFixture fx;
  fx.BuildTree(200000, /*seed=*/23);
  const int height = fx.tree.host_tree().height();
  ASSERT_GE(height, 2);
  auto queries = workload::MakeLookupQueries(fx.data, /*seed=*/24);
  queries.resize(4096);
  auto setting = DiscoverLoadBalance(fx.tree, queries.data(), queries.size(),
                                     fx.BaseConfig());
  EXPECT_GE(setting.d, 0);
  EXPECT_LE(setting.d, height - 2);
  EXPECT_GE(setting.r, 0.0);
  EXPECT_LE(setting.r, 1.0);
  EXPECT_GT(setting.sample_gpu_us, 0.0);
}

}  // namespace
}  // namespace hbtree
