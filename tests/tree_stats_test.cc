#include "cpubtree/tree_stats.h"
#include "workload/paper.h"

#include <gtest/gtest.h>

#include <cmath>


namespace hbtree {
namespace {

TEST(ImplicitStats, OccupancyAndAccounting) {
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/1);
  tree.Build(data);
  ImplicitTreeStats stats = CollectStats(tree);
  EXPECT_EQ(stats.pairs, 100000u);
  EXPECT_EQ(stats.height, tree.height());
  // Built full: occupancy near 1 up to the allocation padding.
  EXPECT_GT(stats.leaf_occupancy, 0.8);
  EXPECT_LE(stats.leaf_occupancy, 1.0);
  EXPECT_GE(stats.padding_overhead, 0.0);
  EXPECT_LT(stats.padding_overhead, 0.2);
  // 16 bytes of pair data plus the inner overhead.
  EXPECT_GT(stats.bytes_per_pair, 16.0);
  EXPECT_LT(stats.bytes_per_pair, 24.0);
  EXPECT_EQ(stats.i_segment_bytes, tree.i_segment_bytes());
}

class RegularStatsFillTest : public ::testing::TestWithParam<double> {};

TEST_P(RegularStatsFillTest, OccupancyTracksBulkLoadFill) {
  const double fill = GetParam();
  PageRegistry registry;
  RegularBTree<Key64>::Config config;
  config.leaf_fill = fill;
  RegularBTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(150000, /*seed=*/2);
  tree.Build(data);
  RegularTreeStats stats = CollectStats(tree);
  EXPECT_EQ(stats.pairs, 150000u);
  // Leaf occupancy must land near the requested fill factor (the last
  // leaf may be partial).
  EXPECT_NEAR(stats.leaf_occupancy, fill, 0.06);
  EXPECT_EQ(stats.last_inner_nodes,
            stats.nodes_per_level.at(1));
  // Node counts shrink by ~the fanout per level.
  for (int level = 2; level <= stats.height; ++level) {
    EXPECT_LT(stats.nodes_per_level[level], stats.nodes_per_level[level - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Fills, RegularStatsFillTest,
                         ::testing::Values(0.5, 0.7, 1.0));

TEST(RegularStats, OccupancyDropsAfterDeletes) {
  PageRegistry registry;
  RegularBTree<Key64>::Config config;
  RegularBTree<Key64> tree(config, &registry);
  auto data = workload::GenerateDataset<Key64>(50000, /*seed=*/3);
  tree.Build(data);
  const double before = CollectStats(tree).leaf_occupancy;
  for (std::size_t i = 0; i < data.size(); i += 2) {
    ASSERT_TRUE(tree.Erase(data[i].key));
  }
  RegularTreeStats stats = CollectStats(tree);
  EXPECT_LT(stats.leaf_occupancy, before - 0.3);
  EXPECT_EQ(stats.pairs, 25000u);
}

TEST(RegularStats, HeightBoundsMatchPaperEquation2) {
  // Section 4.1, Eq. 2: log32(N/4+1) <= H <= log16((N/2+1)/2)+1 for the
  // full 64-bit tree (order-of-magnitude bound on the fat-node height).
  PageRegistry registry;
  RegularBTree<Key64>::Config config;
  RegularBTree<Key64> tree(config, &registry);
  for (std::size_t n : {10000ull, 1000000ull}) {
    auto data = workload::GenerateDataset<Key64>(n, /*seed=*/4);
    tree.Build(data);
    const double lower = std::log(n / 4.0 + 1) / std::log(32.0);
    const double upper =
        std::log((n / 2.0 + 1) / 2.0) / std::log(16.0) + 1;
    EXPECT_GE(tree.height() + 1, std::floor(lower)) << n;  // +1: leaf level
    EXPECT_LE(tree.height(), std::ceil(upper)) << n;
  }
}

}  // namespace
}  // namespace hbtree
