#include "cpubtree/implicit_btree.h"
#include "workload/paper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>


namespace hbtree {
namespace {

template <typename K>
ImplicitBTree<K> MakeTree(bool hybrid, PageRegistry* registry) {
  typename ImplicitBTree<K>::Config config;
  config.hybrid_layout = hybrid;
  return ImplicitBTree<K>(config, registry);
}

template <typename K>
class ImplicitBTreeTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(ImplicitBTreeTypedTest, KeyTypes);

TYPED_TEST(ImplicitBTreeTypedTest, TinyTreeFindsAllKeys) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(false, &registry);
  std::vector<KeyValue<K>> data = {{10, 100}, {20, 200}, {30, 300}};
  tree.Build(data);
  tree.Validate();
  for (const auto& kv : data) {
    auto result = tree.Search(kv.key);
    EXPECT_TRUE(result.found) << kv.key;
    EXPECT_EQ(result.value, kv.value);
  }
  EXPECT_FALSE(tree.Search(K{15}).found);
  EXPECT_FALSE(tree.Search(K{5}).found);
  EXPECT_FALSE(tree.Search(K{35}).found);
}

TYPED_TEST(ImplicitBTreeTypedTest, CpuLayoutAllHitsAndMisses) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(false, &registry);
  auto data = workload::GenerateDataset<K>(20000, /*seed=*/1);
  tree.Build(data);
  tree.Validate();
  for (std::size_t i = 0; i < data.size(); i += 7) {
    auto result = tree.Search(data[i].key);
    ASSERT_TRUE(result.found) << "key index " << i;
    EXPECT_EQ(result.value, data[i].value);
  }
  // Keys between dataset keys must miss.
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    K probe = static_cast<K>(rng.NextBounded(KeyTraits<K>::kMax));
    auto it = std::lower_bound(
        data.begin(), data.end(), probe,
        [](const KeyValue<K>& kv, K k) { return kv.key < k; });
    bool expect = it != data.end() && it->key == probe;
    EXPECT_EQ(tree.Search(probe).found, expect);
  }
}

TYPED_TEST(ImplicitBTreeTypedTest, HybridLayoutAllHits) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(true, &registry);
  auto data = workload::GenerateDataset<K>(33333, /*seed=*/2);
  tree.Build(data);
  tree.Validate();
  for (std::size_t i = 0; i < data.size(); i += 5) {
    auto result = tree.Search(data[i].key);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.value, data[i].value);
  }
}

TYPED_TEST(ImplicitBTreeTypedTest, HybridFanoutIsOneLess) {
  using K = TypeParam;
  PageRegistry registry;
  auto cpu = MakeTree<K>(false, &registry);
  auto hb = MakeTree<K>(true, &registry);
  EXPECT_EQ(cpu.fanout(), KeyTraits<K>::kPerCacheLine + 1);
  EXPECT_EQ(hb.fanout(), KeyTraits<K>::kPerCacheLine);
}

TYPED_TEST(ImplicitBTreeTypedTest, RangeScanReturnsSortedRun) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(false, &registry);
  auto data = workload::GenerateDataset<K>(10000, /*seed=*/3);
  tree.Build(data);
  for (std::size_t start : {std::size_t{0}, std::size_t{17}, std::size_t{9000},
                            data.size() - 5}) {
    KeyValue<K> out[32];
    int got = tree.RangeScan(data[start].key, 32, out);
    int expect = static_cast<int>(std::min<std::size_t>(32, data.size() - start));
    ASSERT_EQ(got, expect);
    for (int i = 0; i < got; ++i) {
      EXPECT_EQ(out[i].key, data[start + i].key);
      EXPECT_EQ(out[i].value, data[start + i].value);
    }
  }
}

TYPED_TEST(ImplicitBTreeTypedTest, RangeScanFromMissingKeyStartsAtLowerBound) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(false, &registry);
  // Spaced keys so probes between keys are easy to construct.
  std::vector<KeyValue<K>> data;
  for (K k = 10; k < 1000; k += 10) data.push_back({k, k * 2});
  tree.Build(data);
  KeyValue<K> out[4];
  int got = tree.RangeScan(K{15}, 4, out);
  ASSERT_EQ(got, 4);
  EXPECT_EQ(out[0].key, K{20});
  EXPECT_EQ(out[3].key, K{50});
}

TYPED_TEST(ImplicitBTreeTypedTest, FindLeafLinePlusLeafSearchEqualsSearch) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(true, &registry);
  auto data = workload::GenerateDataset<K>(5000, /*seed=*/4);
  tree.Build(data);
  for (std::size_t i = 0; i < data.size(); i += 11) {
    std::uint64_t line = tree.FindLeafLine(data[i].key);
    auto result = tree.SearchLeafLine(line, data[i].key);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.value, data[i].value);
  }
}

TYPED_TEST(ImplicitBTreeTypedTest, DescendLevelsMatchesFullTraversalPrefix) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(true, &registry);
  auto data = workload::GenerateDataset<K>(100000, /*seed=*/5);
  tree.Build(data);
  ASSERT_GE(tree.height(), 2);
  // Descending all levels must give the same line as FindLeafLine.
  for (std::size_t i = 0; i < data.size(); i += 997) {
    EXPECT_EQ(tree.DescendLevels(data[i].key, tree.height()),
              tree.FindLeafLine(data[i].key));
  }
}

TYPED_TEST(ImplicitBTreeTypedTest, RebuildReflectsNewData) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(false, &registry);
  auto data = workload::GenerateDataset<K>(1000, /*seed=*/6);
  tree.Build(data);
  auto data2 = workload::GenerateDataset<K>(2000, /*seed=*/7);
  tree.Build(data2);
  tree.Validate();
  for (std::size_t i = 0; i < data2.size(); i += 3) {
    EXPECT_TRUE(tree.Search(data2[i].key).found);
  }
}

TYPED_TEST(ImplicitBTreeTypedTest, QueriesAboveMaximumMissSafely) {
  // Regression: keys above the global maximum descend into padding whose
  // implicit children are not materialized; the clamped descent must
  // report a miss instead of reading out of bounds.
  using K = TypeParam;
  for (bool hybrid : {false, true}) {
    PageRegistry registry;
    auto tree = MakeTree<K>(hybrid, &registry);
    for (std::size_t n : {5ull, 100ull, 4097ull, 100000ull}) {
      auto data = workload::GenerateDataset<K>(n, /*seed=*/77);
      tree.Build(data);
      const K max_key = data.back().key;
      for (K probe : {static_cast<K>(max_key + 1), KeyTraits<K>::kMax,
                      static_cast<K>(KeyTraits<K>::kMax - 1)}) {
        if (probe <= max_key) continue;
        EXPECT_FALSE(tree.Search(probe).found) << n;
        KeyValue<K> out[4];
        EXPECT_EQ(tree.RangeScan(probe, 4, out), 0);
      }
      EXPECT_TRUE(tree.Search(max_key).found);
    }
  }
}

TEST(ImplicitBTreeGeometry, HeightMatchesPaperFormula64) {
  // Paper Section 4.1: H = ceil(log9(N/4 + 1)) for the 64-bit CPU layout.
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  for (std::size_t n : {100ull, 10000ull, 1000000ull}) {
    auto data = workload::GenerateDataset<Key64>(n, 42);
    tree.Build(data);
    double expect = std::ceil(std::log(n / 4.0 + 1) / std::log(9.0));
    EXPECT_NEAR(tree.height(), expect, 1) << "n=" << n;
  }
}

TEST(ImplicitBTreeGeometry, SegmentSizesAreReported) {
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  config.inner_page = PageSize::k1G;
  config.leaf_page = PageSize::k4K;
  ImplicitBTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(4096, 42);
  tree.Build(data);
  EXPECT_GE(tree.l_segment_bytes(), 4096 * sizeof(KeyValue<Key64>));
  EXPECT_GT(tree.i_segment_bytes(), 0u);
  // Page registry must know both segments.
  EXPECT_EQ(registry.Translate(tree.i_segment_nodes()).page_size,
            PageSize::k1G);
  EXPECT_EQ(registry.Translate(tree.l_segment_lines()).page_size,
            PageSize::k4K);
}

}  // namespace
}  // namespace hbtree
