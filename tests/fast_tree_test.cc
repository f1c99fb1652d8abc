#include "fast/fast_tree.h"
#include "workload/paper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>


namespace hbtree {
namespace {

template <typename K>
class FastTreeTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(FastTreeTypedTest, KeyTypes);

TYPED_TEST(FastTreeTypedTest, FindsAllKeys) {
  using K = TypeParam;
  PageRegistry registry;
  typename FastTree<K>::Config config;
  FastTree<K> tree(config, &registry);
  auto data = workload::GenerateDataset<K>(40000, /*seed=*/1);
  tree.Build(data);
  for (std::size_t i = 0; i < data.size(); i += 3) {
    auto result = tree.Search(data[i].key);
    ASSERT_TRUE(result.found) << i;
    EXPECT_EQ(result.value, data[i].value);
  }
}

TYPED_TEST(FastTreeTypedTest, LowerBoundMatchesStd) {
  using K = TypeParam;
  PageRegistry registry;
  typename FastTree<K>::Config config;
  FastTree<K> tree(config, &registry);
  // A non-power-of-two size.
  auto data = workload::GenerateDataset<K>(12345, /*seed=*/2);
  tree.Build(data);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    K probe = static_cast<K>(rng.NextBounded(KeyTraits<K>::kMax));
    auto it = std::lower_bound(
        data.begin(), data.end(), probe,
        [](const KeyValue<K>& kv, K k) { return kv.key < k; });
    std::uint64_t expect = static_cast<std::uint64_t>(it - data.begin());
    std::uint64_t got = tree.LowerBoundIndex(probe);
    // Positions beyond the data are all equivalent misses.
    if (expect == data.size()) {
      EXPECT_GE(got, data.size());
    } else {
      EXPECT_EQ(got, expect) << probe;
    }
  }
}

TYPED_TEST(FastTreeTypedTest, MissesReportedAsNotFound) {
  using K = TypeParam;
  PageRegistry registry;
  typename FastTree<K>::Config config;
  FastTree<K> tree(config, &registry);
  std::vector<KeyValue<K>> data;
  for (K k = 10; k < 2000; k += 10) data.push_back({k, k + 1});
  tree.Build(data);
  EXPECT_FALSE(tree.Search(K{15}).found);
  EXPECT_FALSE(tree.Search(K{5}).found);
  EXPECT_FALSE(tree.Search(K{100000}).found);
  EXPECT_TRUE(tree.Search(K{10}).found);
  EXPECT_TRUE(tree.Search(K{1990}).found);
}

TYPED_TEST(FastTreeTypedTest, BlockGeometry) {
  using K = TypeParam;
  // 64-bit: 3 binary levels per 64-byte line; 32-bit: 4 levels.
  if constexpr (sizeof(K) == 8) {
    EXPECT_EQ(FastTree<K>::kBlockDepth, 3);
    EXPECT_EQ(FastTree<K>::kBlockFanout, 8);
  } else {
    EXPECT_EQ(FastTree<K>::kBlockDepth, 4);
    EXPECT_EQ(FastTree<K>::kBlockFanout, 16);
  }
  PageRegistry registry;
  typename FastTree<K>::Config config;
  FastTree<K> tree(config, &registry);
  auto data = workload::GenerateDataset<K>(100000, /*seed=*/4);
  tree.Build(data);
  EXPECT_EQ(tree.depth() % FastTree<K>::kBlockDepth, 0);
  EXPECT_EQ(tree.block_levels(), tree.depth() / FastTree<K>::kBlockDepth);
}

TEST(FastTreeTrace, OneLineAccessPerBlockLevel) {
  PageRegistry registry;
  FastTree<Key64>::Config config;
  FastTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(500000, /*seed=*/5);
  tree.Build(data);
  struct CountingTracer {
    int accesses = 0;
    void OnAccess(const void*, std::size_t) { ++accesses; }
    void OnQueryStart() {}
    void OnQueryEnd() {}
  } tracer;
  tree.Search(data[777].key, &tracer);
  // One line per block level plus the key-value access.
  EXPECT_EQ(tracer.accesses, tree.block_levels() + 1);
}

}  // namespace
}  // namespace hbtree
