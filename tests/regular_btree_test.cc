#include "cpubtree/regular_btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "gpusim/device.h"
#include "hybrid/hb_regular.h"
#include "sim/cpu_cost_model.h"
#include "sim/platform.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

template <typename K>
RegularBTree<K> MakeTree(PageRegistry* registry, double leaf_fill = 1.0,
                         double inner_fill = 1.0) {
  typename RegularBTree<K>::Config config;
  config.leaf_fill = leaf_fill;
  config.inner_fill = inner_fill;
  return RegularBTree<K>(config, registry);
}

template <typename K>
class RegularBTreeTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(RegularBTreeTypedTest, KeyTypes);

TYPED_TEST(RegularBTreeTypedTest, BulkBuildFindsAllKeys) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry);
  auto data = workload::GenerateDataset<K>(50000, /*seed=*/1);
  tree.Build(data);
  tree.Validate();
  for (std::size_t i = 0; i < data.size(); i += 3) {
    auto result = tree.Search(data[i].key);
    ASSERT_TRUE(result.found) << i;
    EXPECT_EQ(result.value, data[i].value);
  }
}

TYPED_TEST(RegularBTreeTypedTest, MissesBetweenKeys) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry);
  auto data = workload::GenerateDataset<K>(10000, /*seed=*/2);
  tree.Build(data);
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    K probe = static_cast<K>(rng.NextBounded(KeyTraits<K>::kMax));
    auto it = std::lower_bound(
        data.begin(), data.end(), probe,
        [](const KeyValue<K>& kv, K k) { return kv.key < k; });
    bool expect = it != data.end() && it->key == probe;
    EXPECT_EQ(tree.Search(probe).found, expect) << probe;
  }
}

TYPED_TEST(RegularBTreeTypedTest, RangeScanMatchesDataset) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry, /*leaf_fill=*/0.8);
  auto data = workload::GenerateDataset<K>(30000, /*seed=*/3);
  tree.Build(data);
  for (std::size_t start :
       {std::size_t{0}, std::size_t{123}, std::size_t{29990}}) {
    KeyValue<K> out[64];
    int got = tree.RangeScan(data[start].key, 64, out);
    int expect =
        static_cast<int>(std::min<std::size_t>(64, data.size() - start));
    ASSERT_EQ(got, expect);
    for (int i = 0; i < got; ++i) {
      EXPECT_EQ(out[i].key, data[start + i].key);
      EXPECT_EQ(out[i].value, data[start + i].value);
    }
  }
}

TYPED_TEST(RegularBTreeTypedTest, InsertIntoFullTreeSplits) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry, /*leaf_fill=*/1.0);
  auto data = workload::GenerateDataset<K>(20000, /*seed=*/4);
  tree.Build(data);
  // Insert fresh keys; full leaves force splits immediately.
  auto batch = workload::MakeUpdateBatch<K>(
      data, 2000, /*insert_fraction=*/1.0, 5);
  for (const auto& update : batch) {
    ASSERT_TRUE(tree.Insert(update.pair));
  }
  tree.Validate();
  EXPECT_EQ(tree.size(), data.size() + batch.size());
  for (const auto& update : batch) {
    auto result = tree.Search(update.pair.key);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.value, update.pair.value);
  }
  // Old keys still present.
  for (std::size_t i = 0; i < data.size(); i += 17) {
    EXPECT_TRUE(tree.Search(data[i].key).found);
  }
}

TYPED_TEST(RegularBTreeTypedTest, DuplicateInsertRejected) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry);
  auto data = workload::GenerateDataset<K>(5000, /*seed=*/6);
  tree.Build(data);
  EXPECT_FALSE(tree.Insert({data[100].key, 42}));
  EXPECT_EQ(tree.size(), data.size());
  // Original value unchanged.
  EXPECT_EQ(tree.Search(data[100].key).value, data[100].value);
}

TYPED_TEST(RegularBTreeTypedTest, EraseRemovesKeysAndMerges) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry, /*leaf_fill=*/0.5);
  auto data = workload::GenerateDataset<K>(30000, /*seed=*/7);
  tree.Build(data);
  // Erase 80% of keys to force merges.
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 5 != 0) {
      ASSERT_TRUE(tree.Erase(data[i].key)) << i;
    }
  }
  tree.Validate();
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(tree.Search(data[i].key).found, i % 5 == 0);
  }
  EXPECT_FALSE(tree.Erase(data[1].key));  // already gone
}

TYPED_TEST(RegularBTreeTypedTest, FuzzAgainstReferenceModel) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry, /*leaf_fill=*/0.7);
  auto data = workload::GenerateDataset<K>(4000, /*seed=*/8);
  tree.Build(data);
  std::map<K, K> model;
  for (const auto& kv : data) model[kv.key] = kv.value;

  Rng rng(99);
  for (int op = 0; op < 30000; ++op) {
    const int action = static_cast<int>(rng.NextBounded(10));
    K key = static_cast<K>(rng.NextBounded(KeyTraits<K>::kMax));
    if (action < 4) {  // insert random key
      K value = static_cast<K>(rng.Next());
      bool inserted = tree.Insert({key, value});
      bool expect = model.emplace(key, value).second;
      ASSERT_EQ(inserted, expect);
    } else if (action < 7 && !model.empty()) {  // erase existing
      auto it = model.lower_bound(key);
      if (it == model.end()) it = model.begin();
      ASSERT_TRUE(tree.Erase(it->first));
      model.erase(it);
    } else if (action == 7) {  // erase probably-missing
      bool erased = tree.Erase(key);
      ASSERT_EQ(erased, model.erase(key) > 0);
    } else {  // lookup
      auto result = tree.Search(key);
      auto it = model.find(key);
      ASSERT_EQ(result.found, it != model.end());
      if (result.found) {
        ASSERT_EQ(result.value, it->second);
      }
    }
    if (op % 5000 == 4999) tree.Validate();
  }
  tree.Validate();
  EXPECT_EQ(tree.size(), model.size());

  // Full sweep via range scan from the smallest key.
  if (!model.empty()) {
    std::vector<KeyValue<K>> out(model.size());
    int got = tree.RangeScan(model.begin()->first,
                             static_cast<int>(model.size()), out.data());
    ASSERT_EQ(static_cast<std::size_t>(got), model.size());
    auto it = model.begin();
    for (int i = 0; i < got; ++i, ++it) {
      EXPECT_EQ(out[i].key, it->first);
      EXPECT_EQ(out[i].value, it->second);
    }
  }
}

TYPED_TEST(RegularBTreeTypedTest, NonStructuralPathMatchesInsert) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry, /*leaf_fill=*/0.6);
  auto data = workload::GenerateDataset<K>(20000, /*seed=*/10);
  tree.Build(data);
  auto batch = workload::MakeUpdateBatch<K>(
      data, 500, /*insert_fraction=*/1.0, 11);
  int non_structural = 0;
  for (const auto& update : batch) {
    NodeRef ln = tree.FindLastInner(update.pair.key);
    if (!tree.WouldBeStructural(ln, /*is_insert=*/true, update.pair.key)) {
      ASSERT_TRUE(tree.ApplyNonStructural(ln, true, update.pair));
      ++non_structural;
    } else {
      ASSERT_TRUE(tree.Insert(update.pair));
    }
  }
  // With 60% fill, the overwhelming majority must be non-structural
  // (the paper reports > 99%).
  EXPECT_GT(non_structural, static_cast<int>(batch.size() * 95 / 100));
  tree.Validate();
  for (const auto& update : batch) {
    EXPECT_TRUE(tree.Search(update.pair.key).found);
  }
}

TYPED_TEST(RegularBTreeTypedTest, ModifiedNodeReporting) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeTree<K>(&registry, /*leaf_fill=*/1.0);
  auto data = workload::GenerateDataset<K>(10000, /*seed=*/12);
  tree.Build(data);
  auto batch = workload::MakeUpdateBatch<K>(
      data, 200, /*insert_fraction=*/1.0, 13);
  std::vector<ModifiedNode> modified;
  for (const auto& update : batch) tree.Insert(update.pair, &modified);
  // Full leaves mean every insert splits: plenty of modified nodes, and
  // each split reports both halves plus the parent.
  // Every initially-full leaf splits on its first insert, and each split
  // reports both halves plus the parent.
  EXPECT_GE(modified.size(), data.size() / RegularBTree<K>::kLeafCap);
  tree.Validate();
}

TEST(RegularBTreeDeathTest, ValidateCatchesALeafSeparatorBelowItsBound) {
  // A big leaf's last separator must reach the bound its parent routes to
  // it, or the keys between them have no line (the bug SpillIntoGap once
  // had). At fill 1.0 leaf 0 holds keys 1000..256000 in all 64 lines;
  // once 256000 goes, line 63's pairs end at 255000 under the 256000 pin.
  // Lowering the pin to 255000 keeps every pair under its separator and
  // the index line consistent, so only the pin check can catch it.
  using Tree = RegularBTree<Key64>;
  PageRegistry registry;
  auto tree = MakeTree<Key64>(&registry);
  std::vector<KeyValue<Key64>> data;
  for (Key64 i = 0; i < 1000; ++i) data.push_back({(i + 1) * 1000, i});
  tree.Build(data);
  ASSERT_TRUE(tree.Erase(256000));
  tree.Validate();
  RegularLastInnerHot<Key64>& hot = tree.leaf_pool().primary(tree.head_leaf());
  constexpr int kLast = Tree::Shape::kLinesPerLeaf - 1;
  ASSERT_EQ(hot.keys[kLast], 256000u);
  hot.keys[kLast] = 255000;
  hot.indexes[Tree::kIdx - 1] = 255000;
  EXPECT_DEATH(tree.Validate(), "last separator below its bound");
}

TEST(RegularBTreeGeometry, ShapeConstantsMatchPaper) {
  // Section 4.1: F_I = 64 (64-bit) / 256 (32-bit); 17 / 33 cache lines
  // above the last inner level, 9 / 17 at it, which stores no child
  // references; big leaf 256 / 2048 pairs.
  EXPECT_EQ(RegularBTree<Key64>::kFanout, 64);
  EXPECT_EQ(RegularBTree<Key32>::kFanout, 256);
  EXPECT_EQ(sizeof(RegularInnerHot<Key64>), 17u * kCacheLineSize);
  EXPECT_EQ(sizeof(RegularInnerHot<Key32>), 33u * kCacheLineSize);
  EXPECT_EQ(sizeof(RegularLastInnerHot<Key64>), 9u * kCacheLineSize);
  EXPECT_EQ(sizeof(RegularLastInnerHot<Key32>), 17u * kCacheLineSize);
  EXPECT_EQ(RegularBTree<Key64>::kLeafCap, 256);
  EXPECT_EQ(RegularBTree<Key32>::kLeafCap, 2048);
}

TEST(RegularBTreeGeometry, TracedSearchTouchesThreeLinesPerLevel) {
  PageRegistry registry;
  RegularBTree<Key64>::Config config;
  RegularBTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(1000000, /*seed=*/14);
  tree.Build(data);

  struct CountingTracer {
    int accesses = 0;
    void OnAccess(const void*, std::size_t) { ++accesses; }
    void OnQueryStart() {}
    void OnQueryEnd() {}
  } tracer;
  tree.Search(data[12345].key, &tracer);
  // Paper Section 4.1: ~3H+1 lines per query (last level needs no ref
  // line, so exactly 3(H-1) + 2 + 1).
  const int h = tree.height();
  EXPECT_EQ(tracer.accesses, 3 * (h - 1) + 2 + 1);
}

// Section 6.2: a tree under 4 GB on 1G pages never misses the four 1G TLB
// entries. With 64-node chunks both leaf-pool arrays span 16 chunks, which
// still share their arrays' pages, so warm searches miss nothing under
// 1G/1G and at most the one 4K leaf line per query under 1G/4K.
TEST(RegularBTreeGeometry, HugePagesBoundTlbMissesAcrossChunks) {
  const sim::CpuSpec cpu = sim::PlatformSpec::M1().cpu;
  auto data = workload::GenerateDataset<Key64>(1 << 18, /*seed=*/16);
  for (PageSize leaf_page : {PageSize::k1G, PageSize::k4K}) {
    SCOPED_TRACE(PageSizeName(leaf_page));
    PageRegistry registry;
    RegularBTree<Key64>::Config config;
    config.leaf_page = leaf_page;
    config.pool_chunk_nodes = 64;
    RegularBTree<Key64> tree(config, &registry);
    tree.Build(data);
    ASSERT_GE(tree.leaf_pool().chunk_count(), 8u);
    sim::CpuTracer tracer(cpu, &registry);
    Rng rng(17);
    auto search = [&](int queries) {
      for (int i = 0; i < queries; ++i) {
        const Key64 key = data[rng.NextBounded(data.size())].key;
        ASSERT_TRUE(tree.Search(key, &tracer).found);
      }
    };
    search(4000);
    tracer.ResetStats();
    search(8000);
    const double misses = tracer.profile().TlbMissesPerQuery();
    if (leaf_page == PageSize::k1G) {
      EXPECT_LT(misses, 0.01);
    } else {
      EXPECT_LE(misses, 1.0);
    }
  }
}

TEST(RegularBTreeGeometry, ISegmentIsEachPoolsSlotsAtItsFragmentSize) {
  // 64-slot chunks and 3 children per inner node spread both pools over
  // several chunks, the last one part-used. The host tree's I-segment,
  // the HB tree's mirror and its full upload all count each pool's
  // high-water slots at that pool's fragment size.
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  HBRegularTree<Key64>::Config config;
  config.tree.pool_chunk_nodes = 64;
  config.tree.inner_fill = 0.05;
  HBRegularTree<Key64> tree(config, &registry, &device, &transfer);
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/15);
  ASSERT_TRUE(tree.Build(data));
  const RegularBTree<Key64>& host = tree.host_tree();
  ASSERT_GT(host.inner_pool().chunk_count(), 1u);
  ASSERT_GT(host.leaf_pool().chunk_count(), 1u);
  ASSERT_NE(host.leaf_pool().high_water() % 64, 0u);
  auto expected = [&] {
    return host.inner_pool().high_water() * 1088 +
           host.leaf_pool().high_water() * 576;
  };
  EXPECT_EQ(host.i_segment_bytes(), expected());
  EXPECT_EQ(tree.i_segment_bytes(), expected());
  EXPECT_TRUE(tree.MirrorMatchesHost());

  // A run of ascending inserts splits one leaf after another until their
  // parent fills and splits too, allocating slots in both pools.
  const std::size_t inner0 = host.inner_pool().high_water();
  const std::size_t last0 = host.leaf_pool().high_water();
  for (Key64 i = 1; i <= 10000; ++i) {
    ASSERT_TRUE(tree.host_tree().Insert({data[50000].key + i, i}));
  }
  ASSERT_GT(host.inner_pool().high_water(), inner0);
  ASSERT_GT(host.leaf_pool().high_water(), last0);
  ASSERT_TRUE(tree.TrySyncISegment().ok());
  EXPECT_EQ(host.i_segment_bytes(), expected());
  EXPECT_EQ(tree.i_segment_bytes(), expected());
  EXPECT_TRUE(tree.MirrorMatchesHost());
}

}  // namespace
}  // namespace hbtree
