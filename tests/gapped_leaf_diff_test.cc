#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "cpubtree/regular_btree.h"
#include "fault/fault_injector.h"
#include "gpusim/cost_model.h"
#include "gpusim/device.h"
#include "hybrid/gpu_kernels.h"
#include "hybrid/hb_regular.h"
#include "hybrid/mirror_scatter.h"
#include "sim/platform.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

/// Differential coverage for the gapped-leaf insert path (DESIGN.md §14):
/// clustered inserts drive lines full and spill into nearby gaps, deletes
/// reopen them, and everything is replayed against std::map with full
/// structural validation. Plus the delta I-segment sync: the choice among
/// its three plans (stream the runs, stage and scatter, full upload),
/// mirror correctness after each, and the injected-fault fallback to the
/// stale-mirror + full-repair sequence.

template <typename K>
RegularBTree<K> MakeGappedTree(PageRegistry* registry,
                               double leaf_fill = 0.6,
                               double spill_occupancy = 0.85,
                               int spill_window = 8) {
  typename RegularBTree<K>::Config config;
  config.leaf_fill = leaf_fill;
  config.gap_spill_occupancy = spill_occupancy;
  config.gap_spill_window = spill_window;
  return RegularBTree<K>(config, registry);
}

template <typename K>
class GappedLeafDiffTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(GappedLeafDiffTest, KeyTypes);

TYPED_TEST(GappedLeafDiffTest, ClusteredInsertsMatchMapReplay) {
  using K = TypeParam;
  PageRegistry registry;
  auto tree = MakeGappedTree<K>(&registry);
  auto data = workload::GenerateDataset<K>(8000, /*seed=*/21);
  tree.Build(data);
  std::map<K, K> model;
  for (const auto& kv : data) model[kv.key] = kv.value;

  // Clustered runs of consecutive keys: each run lands in one leaf line
  // until it fills, so the spill path fires constantly; interleaved
  // deletes reopen gaps the next run spills back into.
  Rng rng(22);
  for (int round = 0; round < 400; ++round) {
    K anchor = static_cast<K>(rng.NextBounded(KeyTraits<K>::kMax - 64));
    const int run = 1 + static_cast<int>(rng.NextBounded(12));
    for (int i = 0; i < run; ++i) {
      const K key = anchor + static_cast<K>(i);
      const K value = static_cast<K>(rng.Next());
      const bool inserted = tree.Insert({key, value});
      ASSERT_EQ(inserted, model.emplace(key, value).second)
          << "round " << round << " key " << key;
    }
    if (round % 3 == 0 && !model.empty()) {
      auto it = model.lower_bound(anchor);
      for (int i = 0; i < 4 && it != model.end(); ++i) {
        ASSERT_TRUE(tree.Erase(it->first));
        it = model.erase(it);
      }
    }
    if (round % 50 == 49) tree.Validate();
  }
  tree.Validate();
  ASSERT_EQ(tree.size(), model.size());
  for (const auto& [key, value] : model) {
    auto result = tree.Search(key);
    ASSERT_TRUE(result.found) << key;
    ASSERT_EQ(result.value, value) << key;
  }
}

TYPED_TEST(GappedLeafDiffTest, SpillAndRedistributePathsConverge) {
  using K = TypeParam;
  // Same insert stream through the gapped tree and through one with
  // spilling disabled (occupancy 0 makes every leaf "crowded", forcing
  // the full gather-and-redistribute fallback on every full line). Both
  // must agree with the model and each other — the gap layout changes
  // where pairs sit inside a leaf, never what the tree contains.
  PageRegistry registry_a;
  PageRegistry registry_b;
  auto gapped = MakeGappedTree<K>(&registry_a);
  auto eager = MakeGappedTree<K>(&registry_b, /*leaf_fill=*/0.6,
                                 /*spill_occupancy=*/0.0);
  auto data = workload::GenerateDataset<K>(6000, /*seed=*/23);
  gapped.Build(data);
  eager.Build(data);
  std::map<K, K> model;
  for (const auto& kv : data) model[kv.key] = kv.value;

  Rng rng(24);
  for (int round = 0; round < 300; ++round) {
    K anchor = static_cast<K>(rng.NextBounded(KeyTraits<K>::kMax - 32));
    for (int i = 0; i < 8; ++i) {
      const K key = anchor + static_cast<K>(i);
      const K value = static_cast<K>(rng.Next());
      const bool a = gapped.Insert({key, value});
      const bool b = eager.Insert({key, value});
      ASSERT_EQ(a, b) << key;
      ASSERT_EQ(a, model.emplace(key, value).second) << key;
    }
  }
  gapped.Validate();
  eager.Validate();
  ASSERT_EQ(gapped.size(), model.size());
  ASSERT_EQ(eager.size(), model.size());
  for (const auto& [key, value] : model) {
    ASSERT_EQ(gapped.Search(key).value, value) << key;
    ASSERT_EQ(eager.Search(key).value, value) << key;
  }
}

TYPED_TEST(GappedLeafDiffTest, SpillBoundaryCrossesIntoSplit) {
  using K = TypeParam;
  // Hammer one key neighbourhood until its leaf crosses the occupancy
  // threshold and finally splits: the insert stream walks spill → crowded
  // fallback → structural split in order, validating after every insert.
  PageRegistry registry;
  auto tree = MakeGappedTree<K>(&registry, /*leaf_fill=*/0.5,
                                /*spill_occupancy=*/0.85,
                                /*spill_window=*/2);
  std::vector<KeyValue<K>> data;
  const K base = static_cast<K>(1) << 20;
  for (K k = 0; k < 512; ++k) {
    data.push_back({base + k * 16, k});
  }
  tree.Build(data);
  std::map<K, K> model;
  for (const auto& kv : data) model[kv.key] = kv.value;

  for (K k = 0; k < 2048; ++k) {
    const K key = base + k * 4 + 1;  // between the built keys
    const K value = static_cast<K>(k);
    ASSERT_EQ(tree.Insert({key, value}), model.emplace(key, value).second);
    tree.Validate();
  }
  ASSERT_EQ(tree.size(), model.size());
  for (const auto& [key, value] : model) {
    ASSERT_EQ(tree.Search(key).value, value) << key;
  }
}

TEST(GappedLeafSpill, SpillIntoEmptiedLastLineTakesThePin) {
  // At fill 0.7 leaf 0 holds keys 1000..179000 (179 pairs) over all 64
  // lines; line 63 holds 178000 and 179000 under the leaf's pin. Deleting
  // both empties the last line; filling line 62 then spills into it. The
  // spilled line must take the pin, not line 62's old separator (177000),
  // or 178500 has no line to land in.
  PageRegistry registry;
  auto tree = MakeGappedTree<Key64>(&registry, /*leaf_fill=*/0.7);
  std::vector<KeyValue<Key64>> data;
  for (Key64 i = 0; i < 1000; ++i) data.push_back({(i + 1) * 1000, i});
  tree.Build(data);
  std::map<Key64, Key64> model;
  for (const auto& kv : data) model[kv.key] = kv.value;

  for (Key64 key : {178000, 179000}) {
    ASSERT_TRUE(tree.Erase(key));
    model.erase(key);
  }
  for (Key64 key : {175500, 175600, 175700, 178500}) {
    ASSERT_TRUE(tree.Insert({key, key + 1}));
    model[key] = key + 1;
  }
  tree.Validate();
  ASSERT_EQ(tree.size(), model.size());
  for (const auto& [key, value] : model) {
    const auto result = tree.Search(key);
    ASSERT_TRUE(result.found) << key;
    ASSERT_EQ(result.value, value) << key;
  }
}

struct SyncFixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

/// Inserts clustered runs of consecutive keys so leaf lines fill and the
/// gapped spill (or redistribute) path rewrites separators — in-line
/// inserts with slack deliberately do NOT dirty the mirror (the hot
/// fragment is unchanged), so dirtying requires full lines. Returns the
/// keys that actually went in.
template <typename K>
std::vector<K> InsertClustered(HBRegularTree<K>& tree,
                               const std::vector<KeyValue<K>>& data,
                               int clusters, int per_cluster,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<K> keys;
  for (int c = 0; c < clusters; ++c) {
    const K anchor = data[rng.NextBounded(data.size())].key;
    if (anchor >= KeyTraits<K>::kMax - static_cast<K>(per_cluster) - 1) {
      continue;
    }
    for (int i = 1; i <= per_cluster; ++i) {
      const K key = anchor + static_cast<K>(i);
      if (tree.host_tree().Insert({key, static_cast<K>(i)})) {
        keys.push_back(key);
      }
    }
  }
  return keys;
}

template <typename K>
void ExpectKernelFinds(SyncFixture& fx, HBRegularTree<K>& tree,
                       const std::vector<K>& keys) {
  const std::uint32_t count = static_cast<std::uint32_t>(keys.size());
  gpu::DevicePtr q_dev = fx.device.Malloc(count * sizeof(K));
  gpu::DevicePtr r_dev = fx.device.Malloc(count * sizeof(ResultWord));
  fx.transfer.CopyToDevice(q_dev, keys.data(), count * sizeof(K));
  auto params = tree.MakeKernelParams(q_dev, r_dev, count);
  RunRegularInnerSearch<K>(fx.device, params);
  std::vector<ResultWord> results(count);
  std::memcpy(results.data(), fx.device.HostView(r_dev),
              count * sizeof(ResultWord));
  for (std::uint32_t i = 0; i < count; ++i) {
    typename RegularBTree<K>::LeafPosition pos{UnpackLeafNode(results[i]),
                                               UnpackLeafLine(results[i])};
    ASSERT_TRUE(tree.host_tree().SearchLeafLine(pos, keys[i]).found) << i;
  }
  fx.device.Free(q_dev);
  fx.device.Free(r_dev);
}

TEST(DeltaSync, SmallDirtySetStreamsDeltaAndMirrorStaysCorrect) {
  SyncFixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.6;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(200000, /*seed=*/31);
  ASSERT_TRUE(tree.Build(data));
  ASSERT_TRUE(tree.mirror_valid());
  EXPECT_TRUE(tree.MirrorMatchesHost());

  auto keys = InsertClustered<Key64>(tree, data, 8, 16, /*seed=*/32);
  ASSERT_FALSE(keys.empty());
  ASSERT_GT(tree.host_tree().leaf_pool().dirty_count(), 0u);

  double us = 0;
  ASSERT_TRUE(tree.TrySyncISegment(&us).ok());
  EXPECT_EQ(tree.delta_syncs(), 1u);
  EXPECT_EQ(tree.full_syncs(), 0u);
  EXPECT_GT(tree.delta_nodes_synced(), 0u);
  // The modelled delta must beat the full re-upload — that is the whole
  // point of the cost-based path choice.
  EXPECT_LT(us, fx.transfer.HostToDeviceUs(tree.i_segment_bytes()));
  EXPECT_EQ(tree.host_tree().leaf_pool().dirty_count(), 0u);
  EXPECT_TRUE(tree.mirror_valid());
  EXPECT_TRUE(tree.MirrorMatchesHost());

  // The device mirror must now answer for the new keys.
  ExpectKernelFinds<Key64>(fx, tree, keys);
}

std::size_t DirtyCount(const HBRegularTree<Key64>& tree) {
  return tree.host_tree().inner_pool().dirty_count() +
         tree.host_tree().leaf_pool().dirty_count();
}

constexpr std::size_t kInnerBytes = sizeof(RegularInnerHot<Key64>);
constexpr std::size_t kLastBytes = sizeof(RegularLastInnerHot<Key64>);

/// The staged plan's launch for `tree`'s dirty fragments (no buffers).
MirrorScatterParams DirtyScatter(const HBRegularTree<Key64>& tree) {
  MirrorScatterParams params;
  params.counts[0] =
      static_cast<std::uint32_t>(tree.host_tree().inner_pool().dirty_count());
  params.counts[1] =
      static_cast<std::uint32_t>(tree.host_tree().leaf_pool().dirty_count());
  params.fragment_bytes[0] = kInnerBytes;
  params.fragment_bytes[1] = kLastBytes;
  return params;
}

/// The dirty fragments' bytes, each at its pool's size.
std::size_t DirtyBytes(const HBRegularTree<Key64>& tree) {
  return tree.host_tree().inner_pool().dirty_count() * kInnerBytes +
         tree.host_tree().leaf_pool().dirty_count() * kLastBytes;
}

/// The staged plan's closed form for `scatter`'s fragments: one streamed
/// upload of the packed buffer plus the scatter launch's all-DRAM bound.
double StagedBoundUs(const sim::PlatformSpec& platform,
                     const MirrorScatterParams& scatter) {
  const gpu::KernelStats bound = MirrorScatterBound(scatter);
  return platform.pcie.streamed_init_us +
         scatter.StagedBytes() / (platform.pcie.bandwidth_h2d_gbps * 1e3) +
         gpu::EstimateKernelTime(platform.gpu, platform.pcie, bound).total_us;
}

/// Streaming each dirty fragment on its own: the stream plan's worst case.
double StreamEachUs(const gpu::TransferEngine& transfer,
                    const HBRegularTree<Key64>& tree) {
  return tree.host_tree().inner_pool().dirty_count() *
             transfer.StreamedHostToDeviceUs(kInnerBytes) +
         tree.host_tree().leaf_pool().dirty_count() *
             transfer.StreamedHostToDeviceUs(kLastBytes);
}

TEST(DeltaSync, ScatteredDirtySetTakesStagedPlan) {
  SyncFixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.6;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(200000, /*seed=*/36);
  ASSERT_TRUE(tree.Build(data));

  // Clusters all over the keyspace dirty fragments far apart: more than
  // the worst case of one streamed transfer per fragment would allow.
  auto keys = InsertClustered<Key64>(tree, data, 150, 16, /*seed=*/37);
  const std::size_t dirty = DirtyCount(tree);
  const MirrorScatterParams shape = DirtyScatter(tree);
  const double full_us = fx.transfer.HostToDeviceUs(tree.i_segment_bytes());
  ASSERT_GT(StreamEachUs(fx.transfer, tree),
            config.delta_sync_cost_margin * full_us);

  const std::uint64_t transfers0 = fx.transfer.transfers();
  const std::size_t used0 = fx.device.used_bytes();
  double us = 0;
  gpu::KernelStats scatter;
  ASSERT_TRUE(tree.TrySyncISegment(&us, &scatter).ok());
  EXPECT_EQ(tree.delta_syncs(), 1u);
  EXPECT_EQ(tree.full_syncs(), 0u);
  EXPECT_EQ(tree.delta_nodes_synced(), dirty);
  // One upload and one launch, whose stats match the closed form in
  // every field but the DRAM / L2 split.
  EXPECT_EQ(fx.transfer.transfers() - transfers0, 1u);
  const gpu::KernelStats bound = MirrorScatterBound(shape);
  EXPECT_EQ(scatter.warps_executed, bound.warps_executed);
  EXPECT_EQ(scatter.warp_instructions, bound.warp_instructions);
  EXPECT_EQ(scatter.memory_gathers, bound.memory_gathers);
  EXPECT_EQ(scatter.memory_transactions, bound.memory_transactions);
  EXPECT_EQ(scatter.dram_bytes + scatter.l2_bytes, bound.dram_bytes);
  EXPECT_EQ(fx.device.used_bytes(), used0);  // the staging buffer is freed
  // Charged: the packed upload plus the launch's modelled time.
  EXPECT_DOUBLE_EQ(
      us, fx.transfer.StreamedHostToDeviceUs(shape.StagedBytes()) +
              gpu::EstimateKernelTime(fx.platform.gpu, fx.platform.pcie,
                                      scatter)
                  .total_us);
  EXPECT_LE(us, StagedBoundUs(fx.platform, shape));
  EXPECT_LT(us, config.delta_sync_cost_margin * full_us);
  EXPECT_EQ(DirtyCount(tree), 0u);
  EXPECT_TRUE(tree.mirror_valid());
  EXPECT_TRUE(tree.MirrorMatchesHost());
  ExpectKernelFinds<Key64>(fx, tree, keys);
}

TEST(DeltaSync, SplitsStageBothPoolsInOneLaunch) {
  // Full leaves split on their first insert, so a batch of scattered
  // inserts dirties both pools: the split halves in the last-level pool,
  // their parents (which split too, being full) and the root in the inner
  // pool. The one scatter launch writes each fragment at its own pool's
  // stride.
  SyncFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(200000, /*seed=*/39);
  ASSERT_TRUE(tree.Build(data));
  std::vector<Key64> keys;
  for (std::size_t i = 0; i < data.size(); i += 2003) {
    keys.push_back(data[i].key + 1);
    ASSERT_TRUE(tree.host_tree().Insert({keys.back(), 1}));
  }
  const MirrorScatterParams shape = DirtyScatter(tree);
  ASSERT_GT(shape.counts[0], 0u);
  ASSERT_GT(shape.counts[1], 0u);
  const auto inner_dirty = tree.host_tree().inner_pool().dirty_slots();
  const auto last_dirty = tree.host_tree().leaf_pool().dirty_slots();

  double us = 0;
  gpu::KernelStats scatter;
  ASSERT_TRUE(tree.TrySyncISegment(&us, &scatter).ok());
  EXPECT_EQ(tree.delta_syncs(), 1u);
  EXPECT_EQ(tree.delta_nodes_synced(), shape.count());
  const gpu::KernelStats bound = MirrorScatterBound(shape);
  EXPECT_EQ(scatter.warps_executed, bound.warps_executed);
  EXPECT_EQ(scatter.warp_instructions, bound.warp_instructions);
  EXPECT_EQ(scatter.memory_gathers, bound.memory_gathers);
  EXPECT_EQ(scatter.memory_transactions, bound.memory_transactions);
  EXPECT_EQ(scatter.dram_bytes + scatter.l2_bytes, bound.dram_bytes);
  // Each fragment sits at its slot times its own pool's fragment size.
  const auto params = tree.MakeKernelParams({}, {}, 0);
  auto mirrored = [&](gpu::DevicePtr pool, NodeRef slot, const void* host,
                      std::size_t bytes) {
    return std::memcmp(fx.device.HostView(pool + slot * bytes, bytes), host,
                       bytes) == 0;
  };
  for (const NodeRef slot : inner_dirty) {
    EXPECT_TRUE(mirrored(params.inner_hot, slot,
                         &tree.host_tree().inner_hot(slot), kInnerBytes))
        << slot;
  }
  for (const NodeRef slot : last_dirty) {
    EXPECT_TRUE(mirrored(params.last_hot, slot,
                         &tree.host_tree().last_hot(slot), kLastBytes))
        << slot;
  }
  EXPECT_TRUE(tree.MirrorMatchesHost());
  ExpectKernelFinds<Key64>(fx, tree, keys);
}

TEST(DeltaSync, FullUploadIsOneTransferOfTheISegment) {
  SyncFixture fx;
  HBRegularTree<Key64>::Config config;
  config.delta_sync_cost_margin = 0;  // every dirty batch takes the full path
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/40);
  ASSERT_TRUE(tree.Build(data));
  EXPECT_EQ(fx.transfer.transfers(), 1u);
  EXPECT_EQ(fx.transfer.bytes_h2d(), tree.i_segment_bytes());

  ASSERT_TRUE(tree.host_tree().Insert({data[500].key + 1, 1}));  // splits
  const std::uint64_t bytes0 = fx.transfer.bytes_h2d();
  double us = 0;
  ASSERT_TRUE(tree.TrySyncISegment(&us).ok());
  EXPECT_EQ(tree.full_syncs(), 1u);
  EXPECT_EQ(fx.transfer.transfers(), 2u);
  EXPECT_EQ(fx.transfer.bytes_h2d() - bytes0, tree.i_segment_bytes());
  EXPECT_EQ(us, fx.transfer.HostToDeviceUs(tree.i_segment_bytes()));
  EXPECT_TRUE(tree.MirrorMatchesHost());
}

TEST(DeltaSync, StagingBufferThatDoesNotFitStreamsTheRuns) {
  // The dirty set ScatteredDirtySetTakesStagedPlan stages, on a device
  // with room for the mirror and nothing more: the staging buffer does
  // not fit, so the sync streams the runs instead.
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  auto data = workload::GenerateDataset<Key64>(200000, /*seed=*/36);
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.6;
  {
    SyncFixture fx;
    HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                              &fx.transfer);
    ASSERT_TRUE(tree.Build(data));
    platform.gpu.memory_bytes = fx.device.used_bytes();
  }
  PageRegistry registry;
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  HBRegularTree<Key64> tree(config, &registry, &device, &transfer);
  ASSERT_TRUE(tree.Build(data));
  InsertClustered<Key64>(tree, data, 150, 16, /*seed=*/37);
  const std::size_t dirty = DirtyCount(tree);
  const MirrorScatterParams shape = DirtyScatter(tree);

  double us = 0;
  gpu::KernelStats scatter;
  const std::uint64_t transfers0 = transfer.transfers();
  ASSERT_TRUE(tree.TrySyncISegment(&us, &scatter).ok());
  EXPECT_GT(transfer.transfers() - transfers0, 1u);  // one per run
  EXPECT_EQ(scatter.warps_executed, 0u);
  EXPECT_EQ(tree.delta_syncs(), 1u);
  EXPECT_EQ(tree.delta_nodes_synced(), dirty);
  EXPECT_GT(us, StagedBoundUs(platform, shape));  // what staging saved
  EXPECT_TRUE(tree.MirrorMatchesHost());
}

TEST(DeltaSync, OneOrTwoRunsStreamPerRun) {
  SyncFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/38);
  ASSERT_TRUE(tree.Build(data));
  auto& pool = tree.host_tree().leaf_pool();
  ASSERT_GT(pool.high_water(), 40u);

  // Slots 10-12, marked out of order, coalesce into one run; slot 30
  // adds a second. Each run is one streamed transfer of last-level
  // fragments, charged as such.
  const double run3_us = fx.transfer.StreamedHostToDeviceUs(3 * kLastBytes);
  const double run1_us = fx.transfer.StreamedHostToDeviceUs(kLastBytes);
  const std::vector<NodeRef> one_run = {12, 10, 11};
  const std::vector<NodeRef> two_runs = {30, 12, 10, 11};
  for (const auto& set : {one_run, two_runs}) {
    SCOPED_TRACE(set.size());
    for (NodeRef slot : set) pool.MarkDirty(slot);
    double us = 0;
    gpu::KernelStats scatter;
    const std::uint64_t transfers0 = fx.transfer.transfers();
    ASSERT_TRUE(tree.TrySyncISegment(&us, &scatter).ok());
    const bool two = set.size() == two_runs.size();
    EXPECT_EQ(fx.transfer.transfers() - transfers0, two ? 2u : 1u);
    EXPECT_EQ(us, two ? run3_us + run1_us : run3_us);
    EXPECT_EQ(scatter.warps_executed, 0u);  // no launch
  }
  EXPECT_EQ(tree.delta_syncs(), 2u);
  EXPECT_EQ(tree.full_syncs(), 0u);
  EXPECT_TRUE(tree.MirrorMatchesHost());
}

TEST(DeltaSync, LargeDirtySetTakesFullPath) {
  SyncFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/33);
  ASSERT_TRUE(tree.Build(data));

  // Mark seven of every eight slots of both pools: the gaps split them
  // into many runs, and the staged upload carries nearly the whole
  // segment plus the scatter launch, so both delta plans cost more than
  // the margin times the full upload.
  auto& inner = tree.host_tree().inner_pool();
  auto& leaf = tree.host_tree().leaf_pool();
  std::size_t runs = 0;
  for (NodeRef slot = 0; slot < inner.high_water(); ++slot) {
    if (slot % 8 == 0) continue;
    inner.MarkDirty(slot);
    if (slot % 8 == 1) ++runs;
  }
  for (NodeRef slot = 0; slot < leaf.high_water(); ++slot) {
    if (slot % 8 == 0) continue;
    leaf.MarkDirty(slot);
    if (slot % 8 == 1) ++runs;
  }
  // Chunk boundaries can only split more runs, so this bounds the
  // stream plan from below.
  const sim::PcieSpec& pcie = fx.platform.pcie;
  const double margin_us = config.delta_sync_cost_margin *
                           fx.transfer.HostToDeviceUs(tree.i_segment_bytes());
  ASSERT_GT(runs * pcie.streamed_init_us +
                DirtyBytes(tree) / (pcie.bandwidth_h2d_gbps * 1e3),
            margin_us);
  ASSERT_GT(StagedBoundUs(fx.platform, DirtyScatter(tree)), margin_us);

  double us = 0;
  ASSERT_TRUE(tree.TrySyncISegment(&us).ok());
  EXPECT_EQ(tree.delta_syncs(), 0u);
  EXPECT_EQ(tree.full_syncs(), 1u);
  EXPECT_EQ(us, fx.transfer.HostToDeviceUs(tree.i_segment_bytes()));
  EXPECT_EQ(DirtyCount(tree), 0u);  // the bulk upload absorbs everything
  EXPECT_TRUE(tree.mirror_valid());
  EXPECT_TRUE(tree.MirrorMatchesHost());
}

TEST(DeltaSync, FaultOnDeltaPathFallsBackToStaleMirrorThenFullRepair) {
  struct DirtySet {
    double leaf_fill;
    int clusters, per_cluster;
    std::uint64_t seed;
  };
  // A set the stream plan takes, and ScatteredDirtySetTakesStagedPlan's,
  // which the staged plan takes.
  for (const DirtySet set : {DirtySet{1.0, 6, 12, 34},
                             DirtySet{0.6, 150, 16, 36}}) {
    SCOPED_TRACE(set.clusters);
    SyncFixture fx;
    HBRegularTree<Key64>::Config config;
    config.tree.leaf_fill = set.leaf_fill;
    HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                              &fx.transfer);
    auto data = workload::GenerateDataset<Key64>(200000, set.seed);
    ASSERT_TRUE(tree.Build(data));

    auto keys = InsertClustered<Key64>(tree, data, set.clusters,
                                       set.per_cluster, set.seed + 1);
    ASSERT_FALSE(keys.empty());
    const std::size_t dirty_before = DirtyCount(tree);
    ASSERT_GT(dirty_before, 0u);

    // First H2D op faults: the delta sync must fail WITHOUT
    // half-applying — nothing uploaded or scattered, mirror marked
    // stale, dirty set kept for the repair pass.
    fault::FaultConfig fault_config;
    fault_config.site(fault::Site::kTransferH2D).fail_ordinals = {1};
    fault::FaultInjector injector(fault_config);
    fx.device.set_fault_injector(&injector);
    const std::uint64_t transfers0 = fx.transfer.transfers();
    gpu::KernelStats scatter;
    EXPECT_FALSE(tree.TrySyncISegment(nullptr, &scatter).ok());
    EXPECT_EQ(fx.transfer.transfers(), transfers0);
    EXPECT_EQ(scatter.warps_executed, 0u);
    EXPECT_EQ(injector.checks(fault::Site::kTransferH2D), 1u);
    EXPECT_EQ(injector.checks(fault::Site::kDeviceAlloc), 0u);
    EXPECT_FALSE(tree.mirror_valid());
    EXPECT_FALSE(tree.MirrorMatchesHost());
    EXPECT_EQ(tree.delta_syncs(), 0u);
    EXPECT_EQ(DirtyCount(tree), dirty_before);

    // The retry sees the stale mirror, so it cannot take a delta plan:
    // it must run the full upload and repair everything.
    fx.device.set_fault_injector(nullptr);
    double us = 0;
    ASSERT_TRUE(tree.TrySyncISegment(&us).ok());
    EXPECT_EQ(tree.full_syncs(), 1u);
    EXPECT_TRUE(tree.mirror_valid());
    EXPECT_TRUE(tree.MirrorMatchesHost());
    EXPECT_EQ(DirtyCount(tree), 0u);
    ExpectKernelFinds<Key64>(fx, tree, keys);
  }
}

}  // namespace
}  // namespace hbtree
