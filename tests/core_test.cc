#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/random.h"
#include "core/simd.h"

namespace hbtree {
namespace {

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(8);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(KnuthShuffle, IsAPermutation) {
  std::vector<int> items(1000);
  for (int i = 0; i < 1000; ++i) items[i] = i;
  Rng rng(9);
  KnuthShuffle(items, rng);
  std::vector<int> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sorted[i], i);
  // Overwhelmingly unlikely to be the identity.
  EXPECT_NE(items[0] * 1000 + items[1], 0 * 1000 + 1);
}

// ---------------------------------------------------------------------------
// SIMD node search: all algorithms agree with the scalar reference on
// random sorted lines (property sweep over both key widths).
// ---------------------------------------------------------------------------

template <typename K>
class SimdSearchTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(SimdSearchTypedTest, KeyTypes);

TYPED_TEST(SimdSearchTypedTest, AllAlgorithmsMatchScalarReference) {
  using K = TypeParam;
  constexpr int kPer = KeyTraits<K>::kPerCacheLine;
  Rng rng(15);
  for (int round = 0; round < 2000; ++round) {
    alignas(64) K keys[kPer];
    K v = static_cast<K>(rng.NextBounded(100));
    for (int i = 0; i < kPer; ++i) {
      keys[i] = v;
      v = static_cast<K>(v + 1 + rng.NextBounded(1u << 20));
    }
    // Probe below, above, at, and between keys.
    std::vector<K> probes = {0, keys[0], keys[kPer - 1],
                             static_cast<K>(keys[kPer - 1] + 1),
                             KeyTraits<K>::kMax};
    for (int i = 0; i < 10; ++i) {
      probes.push_back(static_cast<K>(rng.NextBounded(KeyTraits<K>::kMax)));
      probes.push_back(keys[rng.NextBounded(kPer)]);
    }
    for (K probe : probes) {
      const int expect = SearchLineBranchless(keys, kPer, probe);
      EXPECT_EQ(SearchCacheLine<K>(keys, probe, NodeSearchAlgo::kSequential),
                expect);
      EXPECT_EQ(SearchCacheLine<K>(keys, probe, NodeSearchAlgo::kLinearSimd),
                expect);
      EXPECT_EQ(SearchCacheLine<K>(keys, probe,
                                   NodeSearchAlgo::kHierarchicalSimd),
                expect);
    }
  }
}

TYPED_TEST(SimdSearchTypedTest, DuplicateKeysHandled) {
  using K = TypeParam;
  constexpr int kPer = KeyTraits<K>::kPerCacheLine;
  alignas(64) K keys[kPer];
  for (int i = 0; i < kPer; ++i) keys[i] = 100;
  for (K probe : {K{50}, K{100}, K{150}}) {
    const int expect = SearchLineBranchless(keys, kPer, probe);
    EXPECT_EQ(SearchCacheLine<K>(keys, probe, NodeSearchAlgo::kLinearSimd),
              expect);
    EXPECT_EQ(
        SearchCacheLine<K>(keys, probe, NodeSearchAlgo::kHierarchicalSimd),
        expect);
  }
}

}  // namespace
}  // namespace hbtree
