#include "hybrid/gpu_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/trace.h"
#include "gpusim/device.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_fast.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"
#include "sim/platform.h"
#include "workload/paper.h"

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
  auto data = workload::GenerateDataset<Key64>(n, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();
  if (cpu_depth >= host.height()) GTEST_SKIP() << "tree too shallow";

  constexpr std::uint32_t kCount = 2000;
  auto queries = workload::MakeDistributedQueries<Key64>(
      kCount, workload::Distribution::kUniform, /*seed=*/2);
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
  auto data = workload::GenerateDataset<Key32>(200000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();

  constexpr std::uint32_t kCount = 1000;
  auto queries = workload::MakeLookupQueries(data, /*seed=*/4);
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
  auto data = workload::GenerateDataset<Key64>(300000, /*seed=*/5);
  ASSERT_TRUE(tree.Build(data));
  const auto& host = tree.host_tree();

  constexpr std::uint32_t kCount = 2000;
  auto queries = workload::MakeDistributedQueries<Key64>(
      kCount, workload::Distribution::kUniform, /*seed=*/6);
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
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/7);
  ASSERT_TRUE(tree.Build(data));

  auto batch = workload::MakeUpdateBatch<Key64>(
      data, 3000, /*insert_fraction=*/1.0, /*seed=*/8);
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
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/9);
  ASSERT_TRUE(tree.Build(data));

  constexpr std::uint32_t kCount = 4096;
  auto queries = workload::MakeLookupQueries(data, /*seed=*/10);
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

/// The query order of a pinned launch: as drawn, sorted, or sorted with
/// start nodes one CPU level down.
enum class Order { kShuffled, kSorted, kSortedWithStarts };

/// One launch's KernelStats and an FNV-1a hash of its result words, as a
/// brace list that pastes straight into the table below.
std::string Describe(const gpu::KernelStats& s, std::uint64_t result_hash) {
  auto list = [](const std::vector<std::uint64_t>& v) {
    std::string out = "{";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(v[i]);
    }
    return out + "}";
  };
  char hash[32];
  std::snprintf(hash, sizeof(hash), "0x%016llx",
                static_cast<unsigned long long>(result_hash));
  std::string out = "{";
  for (std::uint64_t v :
       {s.warps_executed, s.warp_instructions, s.memory_gathers,
        s.memory_transactions, s.dram_bytes, s.l2_bytes, s.mapped_bytes,
        s.shared_accesses, s.shared_bank_conflicts}) {
    out += std::to_string(v) + ", ";
  }
  return out + list(s.node_loads_by_level) + ", " +
         list(s.node_queries_by_level) + ", " + hash + "}";
}

/// Builds the adapter's tree from a fixed dataset on a fresh device and
/// launches its kernel once on fixed queries in `order`, the way the
/// pipeline does: start nodes for kSortedWithStarts, result words into
/// host-mapped memory. Returns Describe() of the launch.
template <typename Adapter, typename K>
std::string PinnedLaunch(Order order) {
  constexpr std::size_t kKeys = 60000;
  constexpr std::uint32_t kCount = 1001;  // the last warp is partial
  KernelFixture fx;
  typename Adapter::Tree::Config config;
  typename Adapter::Tree tree(config, &fx.registry, &fx.device, &fx.transfer);
  const auto data = workload::GenerateDataset<K>(kKeys, /*seed=*/11);
  EXPECT_TRUE(tree.Build(data));

  auto queries = workload::MakeDistributedQueries<K>(
      kCount, workload::Distribution::kZipf, /*seed=*/12);
  for (std::size_t i = 0; i < kCount; i += 2) {
    queries[i] = data[(i * 7919) % data.size()].key;  // hits
  }
  if (order != Order::kShuffled) std::sort(queries.begin(), queries.end());

  const int height = Adapter::Height(tree);
  const int depth = order == Order::kSortedWithStarts ? 1 : 0;
  std::vector<std::uint32_t> starts(kCount);
  NullTracer untraced;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    starts[i] = static_cast<std::uint32_t>(
        Adapter::Descend(tree, queries[i], depth, &untraced));
  }

  gpu::DevicePtr q_dev = fx.device.Malloc(kCount * sizeof(K));
  gpu::DevicePtr s_dev = fx.device.Malloc(kCount * sizeof(std::uint32_t));
  gpu::DevicePtr r_dev = fx.device.TryMalloc(kCount * sizeof(ResultWord),
                                             gpu::MemoryKind::kHostMapped);
  fx.transfer.CopyToDevice(q_dev, queries.data(), kCount * sizeof(K));
  fx.transfer.CopyToDevice(s_dev, starts.data(),
                           kCount * sizeof(std::uint32_t));
  const gpu::KernelStats stats = Adapter::Launch(
      tree, q_dev, r_dev, kCount, height - depth,
      depth > 0 ? s_dev : gpu::DevicePtr{});

  std::uint64_t hash = 0xcbf29ce484222325ull;
  const ResultWord* words = fx.device.HostViewAs<ResultWord>(r_dev);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    hash = (hash ^ words[i]) * 0x100000001b3ull;
  }
  return Describe(stats, hash);
}

using pipeline_internal::FastAdapter;
using pipeline_internal::ImplicitAdapter;
using pipeline_internal::RegularAdapter;

struct PinnedKernelCase {
  const char* name;
  std::string (*launch)(Order);
  Order order;
  const char* expected;  // Describe() of the launch
};

/// Every kernel's exact KernelStats on a fixed tree and fixed queries.
/// Every modelled paper column and benchmark metric is computed from these
/// counters, so a change to a kernel's code must leave each one, and the
/// result words, exactly as they are.
TEST(Kernels, StatsArePinnedExactly) {
  const PinnedKernelCase cases[] = {
      {"implicit64 shuffled", PinnedLaunch<ImplicitAdapter<Key64>, Key64>,
       Order::kShuffled,
       "{251, 13207, 1504, 3089, 57344, 140352, 4004, 2918, 0, "
       "{0, 1000, 996, 964, 726, 1}, {0, 1001, 1001, 1001, 1001, 1001}, "
       "0x050fdcd815cc1a27}"},
      {"implicit64 sorted", PinnedLaunch<ImplicitAdapter<Key64>, Key64>,
       Order::kSorted,
       "{251, 13215, 790, 1021, 57344, 8000, 4004, 3640, 0, "
       "{0, 501, 234, 30, 4, 1}, {0, 1001, 1001, 1001, 1001, 1001}, "
       "0xd2e89d9bcc02cab7}"},
      {"implicit64 starts", PinnedLaunch<ImplicitAdapter<Key64>, Key64>,
       Order::kSortedWithStarts,
       "{251, 10955, 1040, 1271, 61312, 20032, 4004, 2887, 0, "
       "{0, 501, 234, 30, 4}, {0, 1001, 1001, 1001, 1001}, "
       "0xd2e89d9bcc02cab7}"},
      {"implicit32 shuffled", PinnedLaunch<ImplicitAdapter<Key32>, Key32>,
       Order::kShuffled,
       "{501, 21046, 2214, 2918, 31744, 155008, 4004, 4804, 0, "
       "{0, 998, 964, 454, 1}, {0, 1001, 1001, 1001, 1001}, "
       "0xd499bedeaca627bf}"},
      {"implicit32 sorted", PinnedLaunch<ImplicitAdapter<Key32>, Key32>,
       Order::kSorted,
       "{501, 21176, 1286, 934, 31744, 28032, 4004, 5862, 0, "
       "{0, 400, 30, 2, 1}, {0, 1001, 1001, 1001, 1001}, "
       "0x3e32405d95944f57}"},
      {"implicit32 starts", PinnedLaunch<ImplicitAdapter<Key32>, Key32>,
       Order::kSortedWithStarts,
       "{501, 16666, 1786, 1434, 35712, 56064, 4004, 4359, 0, "
       "{0, 400, 30, 2}, {0, 1001, 1001, 1001}, "
       "0x3e32405d95944f57}"},
      {"regular64 shuffled", PinnedLaunch<RegularAdapter<Key64>, Key64>,
       Order::kShuffled,
       "{251, 12338, 2004, 4070, 59392, 201088, 4004, 3808, 0, "
       "{0, 996, 726, 1}, {0, 1001, 1001, 1001}, "
       "0x75077fac66ca4be7}"},
      {"regular64 sorted", PinnedLaunch<RegularAdapter<Key64>, Key64>,
       Order::kSorted,
       "{251, 12342, 921, 1165, 59392, 15168, 4004, 4895, 0, "
       "{0, 234, 4, 1}, {0, 1001, 1001, 1001}, "
       "0x1c931dd616bf5ff7}"},
      {"regular64 starts", PinnedLaunch<RegularAdapter<Key64>, Key64>,
       Order::kSortedWithStarts,
       "{251, 8571, 1166, 1410, 63232, 27008, 4004, 3138, 0, "
       "{0, 234, 4}, {0, 1001, 1001}, "
       "0x1c931dd616bf5ff7}"},
      {"regular32 shuffled", PinnedLaunch<RegularAdapter<Key32>, Key32>,
       Order::kShuffled,
       "{501, 16037, 2697, 3627, 31936, 200192, 4004, 4823, 0, "
       "{0, 964, 1}, {0, 1001, 1001}, "
       "0x7a5a9511ad343885}"},
      {"regular32 sorted", PinnedLaunch<RegularAdapter<Key32>, Key32>,
       Order::kSorted,
       "{501, 16195, 1316, 965, 31936, 29824, 4004, 6362, 0, "
       "{0, 30, 1}, {0, 1001, 1001}, "
       "0x44e9b0641aa0cd29}"},
      {"regular32 starts", PinnedLaunch<RegularAdapter<Key32>, Key32>,
       Order::kSortedWithStarts,
       "{501, 8647, 1784, 1433, 35648, 56064, 4004, 2855, 0, "
       "{0, 30}, {0, 1001}, "
       "0x44e9b0641aa0cd29}"},
      {"fast64 shuffled", PinnedLaunch<FastAdapter<Key64>, Key64>,
       Order::kShuffled,
       "{32, 1408, 256, 2239, 80832, 62464, 4004, 0, 0, "
       "{}, {}, "
       "0xb9b26b634b743d3b}"},
      {"fast64 sorted", PinnedLaunch<FastAdapter<Key64>, Key64>,
       Order::kSorted,
       "{32, 1408, 256, 1410, 80832, 9408, 4004, 0, 0, "
       "{}, {}, "
       "0xbaebfc352b841881}"},
      {"fast64 starts", PinnedLaunch<FastAdapter<Key64>, Key64>,
       Order::kSortedWithStarts,
       "{32, 1216, 256, 1441, 84800, 7424, 4004, 0, 0, "
       "{}, {}, "
       "0xbaebfc352b841881}"},
  };
  for (const PinnedKernelCase& c : cases) {
    EXPECT_EQ(c.launch(c.order), c.expected) << c.name;
  }
}

}  // namespace
}  // namespace hbtree
