// Cross-module property tests: randomized equivalence against reference
// implementations and model invariants that must hold for any input.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "hybrid/batch_update.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"
#include "sim/cache_sim.h"
#include "sim/platform.h"

namespace hbtree {
namespace {

// ---------------------------------------------------------------------------
// CacheLevel vs a reference LRU built from std::list, over random traces.
// ---------------------------------------------------------------------------

class ReferenceLru {
 public:
  ReferenceLru(std::size_t sets, int ways) : sets_(sets), lru_(sets) {
    ways_ = ways;
  }

  bool Access(std::uint64_t line) {
    auto& set = lru_[line % sets_];
    auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
      set.erase(it);
      set.push_front(line);
      return true;
    }
    set.push_front(line);
    if (static_cast<int>(set.size()) > ways_) set.pop_back();
    return false;
  }

 private:
  std::size_t sets_;
  int ways_;
  std::vector<std::list<std::uint64_t>> lru_;
};

class CacheEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheEquivalenceTest, MatchesReferenceLruOnRandomTraces) {
  const auto [log2_sets, ways] = GetParam();
  const std::size_t sets = std::size_t{1} << log2_sets;
  sim::CacheLevel cache({"t", sets * ways * 64, ways, 64});
  ReferenceLru reference(sets, ways);
  Rng rng(17 + log2_sets * 31 + ways);
  for (int i = 0; i < 50000; ++i) {
    // Mix of hot (small range) and cold (wide range) lines.
    std::uint64_t line = (i % 3 == 0) ? rng.NextBounded(sets * ways / 2 + 1)
                                      : rng.NextBounded(sets * ways * 8);
    ASSERT_EQ(cache.Access(line), reference.Access(line)) << "access " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheEquivalenceTest,
                         ::testing::Combine(::testing::Values(0, 3, 6),
                                            ::testing::Values(1, 4, 20)));

// ---------------------------------------------------------------------------
// Pipeline scheduler invariants over random stage times.
// ---------------------------------------------------------------------------

TEST(SchedulerProperties, PeriodBoundedByStagesForAllStrategies) {
  Rng rng(23);
  for (int round = 0; round < 200; ++round) {
    const double t1 = 1 + rng.NextDouble() * 50;
    const double t2 = 1 + rng.NextDouble() * 200;
    const double t3 = rng.NextDouble() * t2;  // the stream lies inside T2
    const double t4 = 1 + rng.NextDouble() * 200;
    const int in_flight = 1 + static_cast<int>(rng.NextBounded(3));

    for (BucketStrategy strategy :
         {BucketStrategy::kSequential, BucketStrategy::kPipelined,
          BucketStrategy::kDoubleBuffered}) {
      pipeline_internal::Scheduler scheduler(strategy, in_flight);
      std::vector<double> ends;
      const int buckets = 40;
      for (int b = 0; b < buckets; ++b) {
        ends.push_back(scheduler.ScheduleBucket(0, t1, t2, t3, t4));
      }
      const double period = ends.back() / buckets;
      const double chain = t1 + t2 + t4;
      // No strategy can beat the slowest stage, or lose to full
      // serialization of the tpre -> T1 -> T2 -> T4 chain.
      EXPECT_GE(period + 1e-9, std::max({t1, t2, t4}))
          << BucketStrategyName(strategy);
      EXPECT_LE(period, chain + 1e-9) << BucketStrategyName(strategy);
      // Completion times are monotone.
      for (int b = 1; b < buckets; ++b) {
        ASSERT_LE(ends[b - 1], ends[b] + 1e-9);
      }
      if (strategy == BucketStrategy::kSequential) {
        EXPECT_NEAR(period, chain, chain * 0.01);
      }
    }
  }
}

TEST(SchedulerProperties, PeriodIsTheSteadyStateCompletionSpacing) {
  // Period() must predict the spacing ScheduleBucket settles into, for
  // every strategy and buffer-set count. The first case is bound by the
  // double-buffered cycle (every bucket holds its buffer set for the
  // 30 us chain T1 -> T2 -> T4, two sets: 15 us apart), not by any one
  // engine (10 us); its result stream fills the whole kernel span and
  // adds nothing.
  struct Stages {
    double tpre, t1, t2, t3, t4;
  };
  std::vector<Stages> cases = {{0, 10, 10, 10, 10}, {5, 10, 60, 5, 50}};
  Rng rng(31);
  for (int round = 0; round < 100; ++round) {
    const double tpre = rng.NextDouble() * 20;
    const double t1 = 1 + rng.NextDouble() * 50;
    const double t2 = 1 + rng.NextDouble() * 200;
    const double t3 = rng.NextDouble() * t2;
    cases.push_back({tpre, t1, t2, t3, 1 + rng.NextDouble() * 200});
  }
  for (const Stages& c : cases) {
    for (BucketStrategy strategy :
         {BucketStrategy::kSequential, BucketStrategy::kPipelined,
          BucketStrategy::kDoubleBuffered}) {
      for (int in_flight : {1, 2, 3}) {
        pipeline_internal::Scheduler scheduler(strategy, in_flight);
        std::vector<double> ends;
        for (int b = 0; b < 300; ++b) {
          ends.push_back(
              scheduler.ScheduleBucket(c.tpre, c.t1, c.t2, c.t3, c.t4));
        }
        // Average over the last 60 buckets (a multiple of every set
        // count), once the start-up transient has passed.
        const double spacing = (ends[299] - ends[239]) / 60;
        const double period = scheduler.Period(c.tpre, c.t1, c.t2, c.t4);
        EXPECT_NEAR(period, spacing, 1e-9 * period)
            << BucketStrategyName(strategy) << " in_flight=" << in_flight
            << " tpre=" << c.tpre << " t1=" << c.t1 << " t2=" << c.t2
            << " t3=" << c.t3 << " t4=" << c.t4;
      }
    }
  }
}

TEST(SchedulerProperties, MoreBucketsInFlightNeverHurts) {
  Rng rng(29);
  for (int round = 0; round < 100; ++round) {
    const double t1 = 1 + rng.NextDouble() * 40;
    const double t2 = 1 + rng.NextDouble() * 150;
    const double t3 = rng.NextDouble() * t2;
    const double t4 = 1 + rng.NextDouble() * 150;
    double prev_period = 1e100;
    for (int in_flight : {1, 2, 3, 4}) {
      pipeline_internal::Scheduler scheduler(
          BucketStrategy::kDoubleBuffered, in_flight);
      std::vector<double> ends;
      for (int b = 0; b < 50; ++b) {
        ends.push_back(scheduler.ScheduleBucket(0, t1, t2, t3, t4));
      }
      const double period = ends.back() / 50;
      EXPECT_LE(period, prev_period + 1e-9);
      prev_period = period;
    }
  }
}

// ---------------------------------------------------------------------------
// Trees vs std::map over a small exhaustive domain: every key in the
// domain is queried, so boundary routing (first key, last key, gaps,
// duplicates of separators) is covered exhaustively.
// ---------------------------------------------------------------------------

template <typename K>
class ExhaustiveDomainTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(ExhaustiveDomainTest, KeyTypes);

TYPED_TEST(ExhaustiveDomainTest, EveryDomainKeyAgreesWithReference) {
  using K = TypeParam;
  Rng rng(31);
  for (int round = 0; round < 8; ++round) {
    // Keys drawn from a small domain so exhaustive probing is feasible.
    const K domain = 3000;
    std::map<K, K> reference;
    std::vector<KeyValue<K>> data;
    const std::size_t n = 50 + rng.NextBounded(1200);
    while (reference.size() < n) {
      K key = static_cast<K>(rng.NextBounded(domain));
      if (reference.emplace(key, static_cast<K>(key * 3 + 1)).second) {
        data.push_back({key, static_cast<K>(key * 3 + 1)});
      }
    }
    std::sort(data.begin(), data.end(),
              [](const KeyValue<K>& a, const KeyValue<K>& b) {
                return a.key < b.key;
              });

    PageRegistry r1, r2, r3;
    typename ImplicitBTree<K>::Config cpu_config;
    ImplicitBTree<K> implicit_cpu(cpu_config, &r1);
    implicit_cpu.Build(data);
    typename ImplicitBTree<K>::Config hb_config;
    hb_config.hybrid_layout = true;
    ImplicitBTree<K> implicit_hb(hb_config, &r2);
    implicit_hb.Build(data);
    typename RegularBTree<K>::Config reg_config;
    reg_config.leaf_fill = 0.5 + 0.5 * rng.NextDouble();
    RegularBTree<K> regular(reg_config, &r3);
    regular.Build(data);

    for (K probe = 0; probe < domain; ++probe) {
      const auto it = reference.find(probe);
      const bool expect = it != reference.end();
      ASSERT_EQ(implicit_cpu.Search(probe).found, expect) << probe;
      ASSERT_EQ(implicit_hb.Search(probe).found, expect) << probe;
      ASSERT_EQ(regular.Search(probe).found, expect) << probe;
      if (expect) {
        ASSERT_EQ(implicit_cpu.Search(probe).value, it->second);
        ASSERT_EQ(implicit_hb.Search(probe).value, it->second);
        ASSERT_EQ(regular.Search(probe).value, it->second);
      }
    }
  }
}

TYPED_TEST(ExhaustiveDomainTest, RangeScansAgreeWithReference) {
  using K = TypeParam;
  Rng rng(37);
  const K domain = 2000;
  std::map<K, K> reference;
  std::vector<KeyValue<K>> data;
  while (reference.size() < 700) {
    K key = static_cast<K>(rng.NextBounded(domain));
    if (reference.emplace(key, key).second) data.push_back({key, key});
  }
  std::sort(data.begin(), data.end(),
            [](const KeyValue<K>& a, const KeyValue<K>& b) {
              return a.key < b.key;
            });
  PageRegistry r1, r2;
  typename ImplicitBTree<K>::Config implicit_config;
  ImplicitBTree<K> implicit(implicit_config, &r1);
  implicit.Build(data);
  typename RegularBTree<K>::Config regular_config;
  RegularBTree<K> regular(regular_config, &r2);
  regular.Build(data);

  KeyValue<K> a[16], b[16];
  for (K start = 0; start < domain; start += 7) {
    const int ia = implicit.RangeScan(start, 16, a);
    const int ib = regular.RangeScan(start, 16, b);
    // Reference: first 16 pairs with key >= start.
    auto it = reference.lower_bound(start);
    int expect = 0;
    for (; it != reference.end() && expect < 16; ++it, ++expect) {
      ASSERT_EQ(a[expect].key, it->first) << start;
      ASSERT_EQ(b[expect].key, it->first) << start;
    }
    ASSERT_EQ(ia, expect) << start;
    ASSERT_EQ(ib, expect) << start;
  }
}

// ---------------------------------------------------------------------------
// Differential harness: long interleaved insert/erase sequences mirrored
// into a std::map, with the trees checked against the reference at
// boundary keys (global min/max, domain edges), absent probes adjacent
// to present keys on both sides, and range queries. Covers the regular
// tree (in-place updates), the implicit tree (rebuild-based), and both
// hybrid trees (batch updates / pipeline lookups).
// ---------------------------------------------------------------------------

template <typename K, typename Tree>
void CheckAgainstReference(const Tree& tree, const std::map<K, K>& reference,
                           Rng* rng) {
  // Global boundary keys and their absent neighbours.
  if (!reference.empty()) {
    const auto& [min_key, min_value] = *reference.begin();
    const auto& [max_key, max_value] = *reference.rbegin();
    auto lo = tree.Search(min_key);
    ASSERT_TRUE(lo.found);
    ASSERT_EQ(lo.value, min_value);
    auto hi = tree.Search(max_key);
    ASSERT_TRUE(hi.found);
    ASSERT_EQ(hi.value, max_value);
    if (min_key > 0 && reference.count(static_cast<K>(min_key - 1)) == 0) {
      ASSERT_FALSE(tree.Search(static_cast<K>(min_key - 1)).found);
    }
    if (reference.count(static_cast<K>(max_key + 1)) == 0) {
      ASSERT_FALSE(tree.Search(static_cast<K>(max_key + 1)).found);
    }
  }
  // Domain edges: key 0 and the largest non-sentinel key.
  auto edge = reference.find(K{0});
  ASSERT_EQ(tree.Search(K{0}).found, edge != reference.end());
  ASSERT_FALSE(tree.Search(static_cast<K>(KeyTraits<K>::kMax - 1)).found);
  // Probes adjacent to present keys, on both sides.
  std::size_t checked = 0;
  for (const auto& [key, value] : reference) {
    if (rng->NextBounded(reference.size()) > 40) continue;
    auto result = tree.Search(key);
    ASSERT_TRUE(result.found) << key;
    ASSERT_EQ(result.value, value);
    for (K probe : {static_cast<K>(key - 1), static_cast<K>(key + 1)}) {
      if (key == 0 && probe > key) continue;  // wrapped below zero
      auto it = reference.find(probe);
      auto got = tree.Search(probe);
      ASSERT_EQ(got.found, it != reference.end()) << probe;
      if (it != reference.end()) {
        ASSERT_EQ(got.value, it->second);
      }
    }
    if (++checked >= 64) break;
  }
}

template <typename K, typename Tree>
void CheckRangesAgainstReference(const Tree& tree,
                                 const std::map<K, K>& reference, K domain,
                                 Rng* rng) {
  KeyValue<K> out[24];
  for (int round = 0; round < 32; ++round) {
    const K start = static_cast<K>(rng->NextBounded(domain + 10));
    const int want = 1 + static_cast<int>(rng->NextBounded(24));
    const int got = tree.RangeScan(start, want, out);
    auto it = reference.lower_bound(start);
    int expect = 0;
    for (; it != reference.end() && expect < want; ++it, ++expect) {
      ASSERT_EQ(out[expect].key, it->first) << "start " << start;
      ASSERT_EQ(out[expect].value, it->second);
    }
    ASSERT_EQ(got, expect) << "start " << start;
  }
}

template <typename K>
class DifferentialTest : public ::testing::Test {};

TYPED_TEST_SUITE(DifferentialTest, KeyTypes);

TYPED_TEST(DifferentialTest, InterleavedInsertEraseMatchesReference) {
  using K = TypeParam;
  Rng rng(43);
  const K domain = 6000;
  std::map<K, K> reference;
  std::vector<KeyValue<K>> data;
  while (reference.size() < 800) {
    K key = static_cast<K>(rng.NextBounded(domain));
    K value = static_cast<K>(key * 3 + 1);
    if (reference.emplace(key, value).second) data.push_back({key, value});
  }
  std::sort(data.begin(), data.end(),
            [](const KeyValue<K>& a, const KeyValue<K>& b) {
              return a.key < b.key;
            });

  PageRegistry r1, r2;
  typename RegularBTree<K>::Config reg_config;
  reg_config.leaf_fill = 0.7;
  RegularBTree<K> regular(reg_config, &r1);
  regular.Build(data);
  typename ImplicitBTree<K>::Config imp_config;
  ImplicitBTree<K> implicit(imp_config, &r2);
  implicit.Build(data);

  for (int step = 1; step <= 3000; ++step) {
    const bool insert =
        reference.size() < 50 || rng.NextBounded(100) < 60;
    if (insert) {
      const K key = static_cast<K>(rng.NextBounded(domain));
      const K value = static_cast<K>(key * 3 + 1);
      const bool tree_did = regular.Insert({key, value});
      const bool map_did = reference.emplace(key, value).second;
      ASSERT_EQ(tree_did, map_did) << "insert " << key;
    } else {
      // Half the erases target a key known to be present, half are
      // random probes that usually miss.
      K key;
      if (rng.NextBounded(2) == 0 && !reference.empty()) {
        auto it = reference.lower_bound(
            static_cast<K>(rng.NextBounded(domain)));
        if (it == reference.end()) it = reference.begin();
        key = it->first;
      } else {
        key = static_cast<K>(rng.NextBounded(domain));
      }
      const bool tree_did = regular.Erase(key);
      const bool map_did = reference.erase(key) > 0;
      ASSERT_EQ(tree_did, map_did) << "erase " << key;
    }
    ASSERT_EQ(regular.size(), reference.size());

    if (step % 500 == 0) {
      regular.Validate();
      CheckAgainstReference(regular, reference, &rng);
      CheckRangesAgainstReference(regular, reference, domain, &rng);
      // The implicit tree is rebuild-based (Section 5.6): rebuild from
      // the reference state and hold it to the same checks.
      std::vector<KeyValue<K>> snapshot;
      snapshot.reserve(reference.size());
      for (const auto& [key, value] : reference) {
        snapshot.push_back({key, value});
      }
      implicit.Build(snapshot);
      implicit.Validate();
      CheckAgainstReference(implicit, reference, &rng);
      CheckRangesAgainstReference(implicit, reference, domain, &rng);
    }
  }
}

struct HybridDifferentialFixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

TYPED_TEST(DifferentialTest, HybridRegularMatchesReferenceAcrossBatches) {
  using K = TypeParam;
  Rng rng(47);
  const K domain = 200000;
  HybridDifferentialFixture fx;
  typename HBRegularTree<K>::Config config;
  config.tree.leaf_fill = 0.8;
  HBRegularTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);

  std::map<K, K> reference;
  std::vector<KeyValue<K>> data;
  // Even keys only, so the odd neighbours of every present key are
  // guaranteed-absent probes until a batch inserts them.
  while (reference.size() < 20000) {
    K key = static_cast<K>(rng.NextBounded(domain) * 2);
    K value = static_cast<K>(key + 5);
    if (reference.emplace(key, value).second) data.push_back({key, value});
  }
  std::sort(data.begin(), data.end(),
            [](const KeyValue<K>& a, const KeyValue<K>& b) {
              return a.key < b.key;
            });
  ASSERT_TRUE(tree.Build(data));

  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  BatchUpdateConfig uconfig;
  uconfig.real_threads = 3;

  for (int round = 0; round < 4; ++round) {
    // Mixed batch: inserts of fresh odd keys, deletes of present keys.
    std::vector<UpdateQuery<K>> batch;
    for (int i = 0; i < 1500; ++i) {
      if (rng.NextBounded(2) == 0) {
        K key = static_cast<K>(rng.NextBounded(domain) * 2 + 1);
        batch.push_back(UpdateQuery<K>{UpdateQuery<K>::Kind::kInsert,
                                       {key, static_cast<K>(key + 5)}});
      } else {
        auto it = reference.lower_bound(
            static_cast<K>(rng.NextBounded(domain) * 2));
        if (it == reference.end()) it = reference.begin();
        batch.push_back(UpdateQuery<K>{UpdateQuery<K>::Kind::kDelete,
                                       {it->first, 0}});
      }
    }
    for (const auto& update : batch) {
      if (update.kind == UpdateQuery<K>::Kind::kInsert) {
        reference.emplace(update.pair.key, update.pair.value);
      } else {
        reference.erase(update.pair.key);
      }
    }
    const UpdateMethod method = round % 2 == 0
                                    ? UpdateMethod::kAsyncParallel
                                    : UpdateMethod::kSynchronized;
    RunBatchUpdate(tree, batch, method, uconfig);
    tree.host_tree().Validate();
    ASSERT_TRUE(tree.MirrorMatchesHost()) << "round " << round;
    ASSERT_EQ(tree.host_tree().size(), reference.size());

    // Device-path lookups: every batch key plus its absent-side
    // neighbours and the global boundary keys, through the pipeline.
    std::vector<K> probes;
    for (const auto& update : batch) {
      probes.push_back(update.pair.key);
      probes.push_back(static_cast<K>(update.pair.key + 1));
      if (update.pair.key > 0) {
        probes.push_back(static_cast<K>(update.pair.key - 1));
      }
    }
    probes.push_back(reference.begin()->first);
    probes.push_back(reference.rbegin()->first);
    probes.push_back(static_cast<K>(KeyTraits<K>::kMax - 1));
    std::vector<LookupResult<K>> results;
    RunSearchPipeline(tree, probes.data(), probes.size(), pconfig, &results);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      auto it = reference.find(probes[i]);
      ASSERT_EQ(results[i].found, it != reference.end())
          << "round " << round << " probe " << probes[i];
      if (it != reference.end()) {
        ASSERT_EQ(results[i].value, it->second);
      }
    }
    CheckAgainstReference(tree.host_tree(), reference, &rng);
  }
}

TYPED_TEST(DifferentialTest, HybridImplicitPipelineMatchesReference) {
  using K = TypeParam;
  Rng rng(53);
  const K domain = 100000;
  HybridDifferentialFixture fx;
  typename HBImplicitTree<K>::Config config;
  HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);

  std::map<K, K> reference;
  std::vector<KeyValue<K>> data;
  while (reference.size() < 30000) {
    K key = static_cast<K>(rng.NextBounded(domain) * 2);
    K value = static_cast<K>(key + 9);
    if (reference.emplace(key, value).second) data.push_back({key, value});
  }
  std::sort(data.begin(), data.end(),
            [](const KeyValue<K>& a, const KeyValue<K>& b) {
              return a.key < b.key;
            });
  ASSERT_TRUE(tree.Build(data));
  ASSERT_TRUE(tree.MirrorMatchesHost());

  // Pipeline lookups over hits, both absent neighbours of each hit, the
  // boundary keys, and the above-maximum edge.
  std::vector<K> probes;
  for (const auto& kv : data) {
    if (rng.NextBounded(8) != 0) continue;
    probes.push_back(kv.key);
    probes.push_back(static_cast<K>(kv.key + 1));
    if (kv.key > 0) probes.push_back(static_cast<K>(kv.key - 1));
  }
  probes.push_back(data.front().key);
  probes.push_back(data.back().key);
  probes.push_back(static_cast<K>(data.back().key + 2));
  probes.push_back(static_cast<K>(KeyTraits<K>::kMax - 1));

  PipelineConfig pconfig;
  pconfig.bucket_size = 2048;
  pconfig.cpu_queries_per_us = 10;
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, probes.data(), probes.size(), pconfig, &results);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    auto it = reference.find(probes[i]);
    ASSERT_EQ(results[i].found, it != reference.end()) << probes[i];
    if (it != reference.end()) {
      ASSERT_EQ(results[i].value, it->second);
    }
  }
  CheckAgainstReference(tree.host_tree(), reference, &rng);
}

}  // namespace
}  // namespace hbtree
