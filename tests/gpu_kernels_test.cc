#include "hybrid/gpu_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/workload.h"
#include "gpusim/device.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"
#include "sim/platform.h"

namespace hbtree {
namespace {

/// Direct kernel-vs-host property tests: for every tree size and start
/// level, the GPU inner search must return exactly the position the host
/// traversal computes — the heterogeneous algorithm's core correctness
/// contract (Section 5.3).

struct KernelFixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

class ImplicitKernelTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ImplicitKernelTest, MatchesHostTraversalFromAnyStartLevel) {
  const auto [n, cpu_depth] = GetParam();
  KernelFixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(n, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();
  if (cpu_depth >= host.height()) GTEST_SKIP() << "tree too shallow";

  constexpr std::uint32_t kCount = 2000;
  auto queries = MakeDistributedQueries<Key64>(kCount, Distribution::kUniform,
                                               /*seed=*/2);
  for (std::size_t i = 0; i < kCount; i += 2) {
    queries[i] = data[(i * 131) % data.size()].key;  // guaranteed hits
  }
  queries[0] = KeyTraits<Key64>::kMax - 1;  // above-maximum edge case

  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(ResultWord));
  gpu::DevicePtr s_dev = fx.device.Malloc(kCount * sizeof(std::uint32_t));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));

  std::vector<std::uint32_t> starts(kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    starts[i] =
        static_cast<std::uint32_t>(host.DescendLevels(queries[i], cpu_depth));
  }
  fx.transfer.CopyToDevice(s_dev, starts.data(),
                           kCount * sizeof(std::uint32_t));

  auto params = tree.MakeKernelParams(
      q_dev, r_dev, kCount, host.height() - cpu_depth,
      cpu_depth > 0 ? s_dev : gpu::DevicePtr{});
  gpu::KernelStats stats = RunImplicitInnerSearch<Key64>(fx.device, params);

  std::vector<ResultWord> results(kCount);
  std::memcpy(results.data(), fx.device.HostView(r_dev),
              kCount * sizeof(ResultWord));
  for (std::uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(results[i], host.FindLeafLine(queries[i])) << "query " << i;
  }

  // Team geometry: 8 threads per 64-bit query -> 4 queries per warp.
  EXPECT_EQ(stats.warps_executed, (kCount + 3) / 4);
  EXPECT_GT(stats.shared_accesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDepths, ImplicitKernelTest,
    ::testing::Combine(::testing::Values(std::size_t{1000},
                                         std::size_t{50000},
                                         std::size_t{500000}),
                       ::testing::Values(0, 1, 2)));

TEST(ImplicitKernel32, TeamOf16MatchesHost) {
  KernelFixture fx;
  HBImplicitTree<Key32>::Config config;
  HBImplicitTree<Key32> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key32>(200000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();

  constexpr std::uint32_t kCount = 1000;
  auto queries = MakeLookupQueries(data, /*seed=*/4);
  queries.resize(kCount);
  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key32));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(ResultWord));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key32));
  auto params = tree.MakeKernelParams(q_dev, r_dev, kCount);
  gpu::KernelStats stats = RunImplicitInnerSearch<Key32>(fx.device, params);
  std::vector<ResultWord> results(kCount);
  std::memcpy(results.data(), fx.device.HostView(r_dev),
              kCount * sizeof(ResultWord));
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(results[i], host.FindLeafLine(queries[i]));
  }
  // 16 threads per 32-bit query -> 2 queries per warp.
  EXPECT_EQ(stats.warps_executed, kCount / 2);
}

TEST(RegularKernel, MatchesHostFindLeafPosition) {
  KernelFixture fx;
  HBRegularTree<Key64>::Config config;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(300000, /*seed=*/5);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();

  constexpr std::uint32_t kCount = 2000;
  auto queries = MakeDistributedQueries<Key64>(kCount, Distribution::kUniform,
                                               /*seed=*/6);
  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(ResultWord));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));
  auto params = tree.MakeKernelParams(q_dev, r_dev, kCount);
  RunRegularInnerSearch<Key64>(fx.device, params);
  std::vector<ResultWord> results(kCount);
  std::memcpy(results.data(), fx.device.HostView(r_dev),
              kCount * sizeof(ResultWord));
  for (std::uint32_t i = 0; i < kCount; ++i) {
    auto expect = host.FindLeafPosition(queries[i]);
    EXPECT_EQ(UnpackLeafNode(results[i]), expect.last_inner) << i;
    EXPECT_EQ(UnpackLeafLine(results[i]), expect.line) << i;
  }
}

TEST(RegularKernel, StaysCorrectAfterNodeSync) {
  // Update the host tree, mirror only the modified nodes, and verify the
  // kernel sees the updated structure (synchronized method, Section 5.6).
  KernelFixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.95;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(100000, /*seed=*/7);
  ASSERT_TRUE(tree.Build(data));

  auto batch = MakeUpdateBatch<Key64>(data, 3000, /*insert_fraction=*/1.0,
                                      /*seed=*/8);
  for (const auto& update : batch) {
    std::vector<ModifiedNode> modified;
    tree.host_tree().Insert(update.pair, &modified);
    for (const auto& node : modified) {
      ASSERT_TRUE(tree.TrySyncNode(node).ok());
    }
  }

  constexpr std::uint32_t kCount = 1500;
  std::vector<Key64> queries(kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    queries[i] = batch[i % batch.size()].pair.key;
  }
  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(ResultWord));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));
  auto params = tree.MakeKernelParams(q_dev, r_dev, kCount);
  RunRegularInnerSearch<Key64>(fx.device, params);
  std::vector<ResultWord> results(kCount);
  std::memcpy(results.data(), fx.device.HostView(r_dev),
              kCount * sizeof(ResultWord));
  for (std::uint32_t i = 0; i < kCount; ++i) {
    typename RegularBTree<Key64>::LeafPosition pos{
        UnpackLeafNode(results[i]), UnpackLeafLine(results[i])};
    auto result = tree.host_tree().SearchLeafLine(pos, queries[i]);
    ASSERT_TRUE(result.found) << i;
  }
}

TEST(ResultWord, LeafPositionRoundTripsAtTheFieldLimits) {
  // 24 node bits and 8 line bits: the largest slot, and the last line of
  // a 64-bit (64 lines) and a 32-bit (256 lines) big leaf.
  constexpr NodeRef kMaxNode = (NodeRef{1} << 24) - 1;
  for (NodeRef node : {NodeRef{0}, NodeRef{1}, kMaxNode}) {
    for (int line : {0, 63, 255}) {
      const ResultWord packed = PackLeafPosition(node, line);
      EXPECT_EQ(UnpackLeafNode(packed), node) << node << "/" << line;
      EXPECT_EQ(UnpackLeafLine(packed), line) << node << "/" << line;
    }
  }
  EXPECT_EQ(PackLeafPosition(kMaxNode, 255), ~ResultWord{0});
}

TEST(ResultWord, FieldCheckRefusesWhatTheWordCannotAddress) {
  EXPECT_TRUE(CheckResultWordField(std::uint64_t{1} << 24, 24, "nodes").ok());
  const Status nodes =
      CheckResultWordField((std::uint64_t{1} << 24) + 1, 24, "nodes");
  EXPECT_EQ(nodes.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(CheckResultWordField(std::uint64_t{1} << 32, 32, "lines").ok());
  EXPECT_EQ(
      CheckResultWordField((std::uint64_t{1} << 32) + 1, 32, "lines").code(),
      StatusCode::kOutOfRange);
}

TEST(Kernels, CoalescingBeatsWorstCase) {
  // The implicit kernel's team loads touch one 64-byte node per query:
  // a warp (4 teams) must issue at most 4 transactions per level, far
  // below the 32 a scalar-per-lane pattern would cost (Appendix C).
  KernelFixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = GenerateDataset<Key64>(100000, /*seed=*/9);
  ASSERT_TRUE(tree.Build(data));

  constexpr std::uint32_t kCount = 4096;
  auto queries = MakeLookupQueries(data, /*seed=*/10);
  queries.resize(kCount);
  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(Key64));
  gpu::DevicePtr r_dev = fx.device.Malloc(kCount * sizeof(ResultWord));
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(Key64));
  auto params = tree.MakeKernelParams(q_dev, r_dev, kCount);
  gpu::KernelStats stats = RunImplicitInnerSearch<Key64>(fx.device, params);

  const std::uint64_t height = tree.host_tree().height();
  const std::uint64_t warps = stats.warps_executed;
  // <= 4 transactions per warp per level, plus query loads and result
  // stores (~2 per warp).
  EXPECT_LE(stats.memory_transactions, warps * (4 * height + 4));
}

}  // namespace
}  // namespace hbtree
