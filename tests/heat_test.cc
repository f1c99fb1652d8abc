// Tests for the heat observability layer (obs/heat.h, DESIGN.md §13):
// keyspace sketch determinism under the fixed-point zipf chooser,
// cross-shard merge against unsharded ground truth, tenant attribution,
// per-level traffic reconciliation against the cache hierarchy, and
// segment temperature classes.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "core/trace.h"
#include "obs/heat.h"
#include "sim/cache_sim.h"
#include "workload/key_chooser.h"

namespace hbtree::obs {
namespace {

constexpr std::uint64_t kSeed = 0x5eedbeef;

std::vector<sim::CacheLevel::Config> SmallHierarchy() {
  return {{"L1", 4 * 1024, 4, 64},
          {"L2", 32 * 1024, 8, 64},
          {"L3", 256 * 1024, 16, 64}};
}

// ---------------------------------------------------------------------------
// Keyspace sketch
// ---------------------------------------------------------------------------

// The Q32.32 fixed-point zipf chooser produces bit-identical rank streams
// on every platform, so feeding a fixed seed through the sketch must land
// identical per-bin counts on every run — and the skew must concentrate
// on the low bins (unscrambled zipf ranks map to the low-key prefix).
TEST(KeyRangeSketch, DeterministicUnderFixedPointZipfChooser) {
  constexpr std::uint64_t kItems = 4096;
  constexpr std::size_t kOps = 32768;
  workload::KeyChooser::Params params;
  params.kind = workload::KeyChooserKind::kZipfian;
  const workload::KeyChooser chooser(params, kItems);

  KeyRangeSketch::Options options;
  options.fanout = 64;
  // Keys are (index + 1) * 8, the serving harness's sequential layout.
  KeyRangeSketch sketch(8, kItems * 8, options);
  std::vector<std::uint64_t> reference(64, 0);
  Rng rng(kSeed);
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::uint64_t key = (chooser.Next(rng) + 1) * 8;
    sketch.Record(key);
    reference[static_cast<std::size_t>(sketch.BinFor(key))]++;
  }

  const KeyRangeSketch::Snapshot snap = sketch.TakeSnapshot();
  ASSERT_EQ(snap.total, kOps);
  ASSERT_EQ(snap.bins.size(), reference.size());
  for (std::size_t b = 0; b < reference.size(); ++b) {
    EXPECT_EQ(snap.bins[b], reference[b]) << "bin " << b;
  }
  // Golden skew shape: rank 0..63 land in bin 0, which takes roughly half
  // the zipf(0.99) mass; a uniform stream would put 512 ops per bin.
  EXPECT_EQ(snap.bins[0],
            *std::max_element(snap.bins.begin(), snap.bins.end()));
  EXPECT_GT(snap.bins[0], kOps * 2 / 5);

  // Bit-exact replay: a second chooser+sketch from the same seed.
  KeyRangeSketch replay(8, kItems * 8, options);
  Rng rng2(kSeed);
  for (std::size_t i = 0; i < kOps; ++i) {
    replay.Record((chooser.Next(rng2) + 1) * 8);
  }
  EXPECT_EQ(replay.TakeSnapshot().bins, snap.bins);
}

TEST(KeyRangeSketch, ClampsOutOfRangeKeysToBoundaryBins) {
  KeyRangeSketch::Options options;
  options.fanout = 8;
  KeyRangeSketch sketch(100, 199, options);
  sketch.Record(5);     // below lo -> bin 0
  sketch.Record(1000);  // above hi -> last bin
  const auto snap = sketch.TakeSnapshot();
  EXPECT_EQ(snap.bins.front(), 1u);
  EXPECT_EQ(snap.bins.back(), 1u);
  EXPECT_EQ(snap.total, 2u);
}

// Sharded sketches over aligned sub-ranges must merge to exactly the
// histogram an unsharded sketch of the whole keyspace would produce:
// same ranges, same counts, same total.
TEST(MergeSketches, CrossShardMergeEqualsUnshardedGroundTruth) {
  constexpr std::uint64_t kSpan = 1u << 16;  // [0, 65535]
  constexpr int kShards = 4;
  constexpr int kShardFanout = 64;

  KeyRangeSketch::Options global_options;
  global_options.fanout = kShards * kShardFanout;  // same bin width
  KeyRangeSketch global(0, kSpan - 1, global_options);

  KeyRangeSketch::Options shard_options;
  shard_options.fanout = kShardFanout;
  // deque: the sketch owns atomics, so it is neither movable nor copyable.
  std::deque<KeyRangeSketch> shards;
  const std::uint64_t shard_span = kSpan / kShards;
  for (int s = 0; s < kShards; ++s) {
    shards.emplace_back(s * shard_span, (s + 1) * shard_span - 1,
                        shard_options);
  }

  Rng rng(kSeed);
  for (int i = 0; i < 100000; ++i) {
    // Mildly skewed: squaring biases draws toward low keys so the top-K
    // order is non-trivial.
    const std::uint64_t u = rng.NextBounded(kSpan);
    const std::uint64_t key = (u * u) / kSpan;
    global.Record(key);
    shards[static_cast<std::size_t>(key / shard_span)].Record(key);
  }

  std::vector<KeyRangeSketch::Snapshot> snaps;
  for (const auto& shard : shards) snaps.push_back(shard.TakeSnapshot());
  MergeOptions merge_options;
  merge_options.top_k = kShards * kShardFanout;  // keep everything
  const KeyspaceHeat heat = MergeSketches(snaps, merge_options);

  const KeyRangeSketch::Snapshot truth = global.TakeSnapshot();
  EXPECT_EQ(heat.total, truth.total);
  EXPECT_EQ(heat.bins, global_options.fanout);
  ASSERT_EQ(heat.shard_totals.size(), static_cast<std::size_t>(kShards));
  std::uint64_t shard_sum = 0;
  for (std::uint64_t t : heat.shard_totals) shard_sum += t;
  EXPECT_EQ(shard_sum, heat.total);

  // Every merged range must match the unsharded bin covering its keys,
  // and together they must account for every non-empty bin.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> truth_bins;
  for (int b = 0; b < truth.fanout; ++b) {
    if (truth.bins[static_cast<std::size_t>(b)] == 0) continue;
    truth_bins[truth.BinRange(b)] = truth.bins[static_cast<std::size_t>(b)];
  }
  ASSERT_EQ(heat.top.size(), truth_bins.size());
  std::uint64_t prev_count = ~0ull;
  for (const HeatRange& range : heat.top) {
    const auto it = truth_bins.find({range.lo, range.hi});
    ASSERT_NE(it, truth_bins.end())
        << "merged range [" << range.lo << ", " << range.hi
        << "] does not exist unsharded";
    EXPECT_EQ(range.count, it->second);
    EXPECT_LE(range.count, prev_count) << "top-K order broken";
    prev_count = range.count;
  }
}

TEST(MergeSketches, TenantCountsSumToRangeCount) {
  KeyRangeSketch::Options options;
  options.fanout = 8;
  options.tenants = 3;
  KeyRangeSketch sketch(0, 799, options);
  Rng rng(kSeed);
  for (int i = 0; i < 5000; ++i) {
    sketch.Record(rng.NextBounded(800), rng.NextBounded(3));
  }
  sketch.Record(42, 99);  // out-of-range tenant folds into tenant 0

  MergeOptions merge_options;
  merge_options.top_k = 8;
  const KeyspaceHeat heat = MergeSketches({sketch.TakeSnapshot()},
                                          merge_options);
  EXPECT_EQ(heat.total, 5001u);
  ASSERT_FALSE(heat.top.empty());
  for (const HeatRange& range : heat.top) {
    std::uint64_t tenant_sum = 0;
    for (std::uint64_t c : range.by_tenant) tenant_sum += c;
    EXPECT_EQ(tenant_sum, range.count);
  }
}

TEST(MergeSketches, HotFlagTracksThresholdShare) {
  KeyRangeSketch::Options options;
  options.fanout = 16;
  KeyRangeSketch sketch(0, 1599, options);
  // 85% of ops into bin 0, the rest spread evenly: only bin 0 exceeds
  // 4x the uniform share (4/16 = 0.25).
  for (int i = 0; i < 850; ++i) sketch.Record(0);
  for (int i = 0; i < 150; ++i) sketch.Record((i % 15 + 1) * 100);
  const KeyspaceHeat heat = MergeSketches({sketch.TakeSnapshot()});
  ASSERT_FALSE(heat.top.empty());
  EXPECT_TRUE(heat.top[0].hot);
  EXPECT_EQ(heat.top[0].lo, 0u);
  for (std::size_t i = 1; i < heat.top.size(); ++i) {
    EXPECT_FALSE(heat.top[i].hot) << "range " << i;
  }
}

TEST(KeyRangeSketch, ConcurrentRecordsAllLand) {
  KeyRangeSketch::Options options;
  options.fanout = 32;
  options.tenants = 2;
  KeyRangeSketch sketch(0, (1u << 20) - 1, options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sketch, t] {
      Rng rng(kSeed + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        sketch.Record(rng.NextBounded(1u << 20),
                      static_cast<std::size_t>(t % 2));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sketch.TakeSnapshot().total,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Tree-level traffic attribution
// ---------------------------------------------------------------------------

// Every access the tracer attributes also passes through the hierarchy,
// so the per-cell byte totals must reconcile exactly with the
// hierarchy's access counters — including the DRAM split.
TEST(LevelHeatTracer, ReconcilesWithCacheHierarchyTotals) {
  sim::CacheHierarchy caches(SmallHierarchy());
  LevelHeatTracer tracer(&caches);

  // A buffer far larger than L3 so some accesses miss to DRAM.
  std::vector<std::uint64_t> arena(1u << 17);
  Rng rng(kSeed);
  for (int q = 0; q < 200; ++q) {
    tracer.OnQueryStart();
    tracer.OnNodeTouch(2, NodeClass::kInner, 0);
    for (int i = 0; i < 8; ++i) {
      tracer.OnAccess(&arena[rng.NextBounded(arena.size())], 64);
    }
    tracer.OnNodeTouch(1, NodeClass::kLastInner, 1);
    for (int i = 0; i < 4; ++i) {
      tracer.OnAccess(&arena[rng.NextBounded(arena.size())], 64);
    }
    tracer.OnNodeTouch(0, NodeClass::kBigLeaf, 2);
    for (int i = 0; i < 16; ++i) {
      tracer.OnAccess(&arena[rng.NextBounded(arena.size())], 64);
    }
    tracer.OnQueryEnd();
  }

  EXPECT_EQ(tracer.total_bytes(), 64 * caches.accesses());
  EXPECT_EQ(caches.accesses(), 200u * 28);

  std::vector<LevelTraffic> cells;
  tracer.Collect(&cells);
  ASSERT_EQ(cells.size(), 3u);
  std::uint64_t bytes = 0;
  std::uint64_t dram_bytes = 0;
  for (const LevelTraffic& cell : cells) {
    bytes += cell.bytes;
    dram_bytes += cell.hit_bytes[3];
    EXPECT_EQ(cell.hit_bytes[0] + cell.hit_bytes[1] + cell.hit_bytes[2] +
                  cell.hit_bytes[3],
              cell.bytes)
        << LevelCellName(cell.level, cell.node_class);
    EXPECT_EQ(cell.touches, 200u);
  }
  EXPECT_EQ(bytes, tracer.total_bytes());
  EXPECT_EQ(dram_bytes, 64 * caches.memory_accesses());
  EXPECT_GT(caches.memory_accesses(), 0u)
      << "arena should not fit in the modelled L3";
}

TEST(LevelHeatTracer, AttributesUntouchedAccessesToOtherCell) {
  sim::CacheHierarchy caches(SmallHierarchy());
  LevelHeatTracer tracer(&caches);
  std::uint64_t word = 0;
  tracer.OnAccess(&word, 64);  // before any touch
  std::vector<LevelTraffic> cells;
  tracer.Collect(&cells);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].node_class, LevelHeatTracer::kOtherClass);
  EXPECT_EQ(LevelCellName(cells[0].level, cells[0].node_class), "other");
  EXPECT_EQ(cells[0].bytes, 64u);

  tracer.Reset();
  cells.clear();
  tracer.Collect(&cells);
  EXPECT_TRUE(cells.empty());
}

// The core hook compiles to nothing for tracers without OnNodeTouch but
// must both bump the pool's touch counter and notify a heat tracer.
TEST(TraceNodeTouch, FeedsPoolCountersAndHeatTracerOnly) {
  struct CountingPool {
    mutable std::atomic<std::uint64_t> touches{0};
    void NoteTouch(std::uint32_t) const {
      touches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  CountingPool pool;

  NullTracer null_tracer;
  TraceNodeTouch(&null_tracer, pool, 0, NodeClass::kBigLeaf, 7u);
  EXPECT_EQ(pool.touches.load(), 0u)
      << "a heat-blind tracer must not pay the pool counter either";

  sim::CacheHierarchy caches(SmallHierarchy());
  LevelHeatTracer tracer(&caches);
  TraceNodeTouch(&tracer, pool, 3, NodeClass::kInner, 7u);
  EXPECT_EQ(pool.touches.load(), 1u);
  std::vector<LevelTraffic> cells;
  tracer.Collect(&cells);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].level, 3);
  EXPECT_EQ(cells[0].node_class, static_cast<int>(NodeClass::kInner));
  EXPECT_EQ(cells[0].touches, 1u);
}

// ---------------------------------------------------------------------------
// Memory-segment temperature
// ---------------------------------------------------------------------------

TEST(ClassifySegments, OneObservationSplitsAtZeroAndSixtyFourTouches) {
  const PoolTemperature t = ClassifySegments({0, 1, 63, 64, 1000, 0});
  EXPECT_EQ(t.segments, 6u);
  EXPECT_EQ(t.hot, 2u);   // 64 and 1000
  EXPECT_EQ(t.warm, 2u);  // 1 and 63
  EXPECT_EQ(t.cold, 2u);  // never touched
  EXPECT_DOUBLE_EQ(t.cold_fraction, 2.0 / 6.0);

  const PoolTemperature empty = ClassifySegments({});
  EXPECT_EQ(empty.segments, 0u);
  EXPECT_EQ(empty.cold_fraction, 0.0);
}

}  // namespace
}  // namespace hbtree::obs
