#include "hybrid/gpu_build.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gpusim/cost_model.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/mirror_scatter.h"
#include "sim/platform.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

struct Fixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

template <typename K>
class GpuBuildTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(GpuBuildTypedTest, KeyTypes);

TYPED_TEST(GpuBuildTypedTest, DeviceBuiltISegmentMatchesHostByteForByte) {
  using K = TypeParam;
  for (std::size_t n : {100ull, 5000ull, 300000ull}) {
    Fixture fx;
    typename HBImplicitTree<K>::Config config;
    HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
    auto data = workload::GenerateDataset<K>(n, /*seed=*/n);
    ASSERT_TRUE(tree.Build(data));  // uploads the host-built I-segment

    // Scribble over the device mirror, then rebuild it with the kernel.
    const auto& host = tree.host_tree();
    const std::size_t bytes = host.i_segment_node_count() * kCacheLineSize;
    std::memset(fx.device.HostView(tree.device_nodes()), 0xee, bytes);
    BuildISegmentOnDevice<K>(host, fx.device, fx.transfer,
                             tree.device_nodes());

    EXPECT_EQ(std::memcmp(fx.device.HostView(tree.device_nodes()),
                          host.i_segment_nodes(), bytes),
              0)
        << "n=" << n;
  }
}

TEST(GpuBuild, WorksForCpuLayoutToo) {
  // Fanout 9 (CPU layout): the ninth child has no key; the kernel's
  // subtree-max chain must still match the host build.
  Fixture fx;
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;  // CPU layout, huge pages
  ImplicitBTree<Key64> host(config, &registry);
  auto data = workload::GenerateDataset<Key64>(200000, /*seed=*/7);
  host.Build(data);

  const std::size_t bytes = host.i_segment_node_count() * kCacheLineSize;
  gpu::DevicePtr device_nodes = fx.device.Malloc(bytes);
  BuildISegmentOnDevice<Key64>(host, fx.device, fx.transfer, device_nodes);
  EXPECT_EQ(std::memcmp(fx.device.HostView(device_nodes),
                        host.i_segment_nodes(), bytes),
            0);
}

TEST(GpuBuild, TransfersLessThanFullSegmentUpload) {
  Fixture fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(1 << 20, /*seed=*/8);
  ASSERT_TRUE(tree.Build(data));

  const std::uint64_t before = fx.transfer.bytes_h2d();
  BuildISegmentOnDevice<Key64>(tree.host_tree(), fx.device, fx.transfer,
                               tree.device_nodes());
  const std::uint64_t maxima_bytes = fx.transfer.bytes_h2d() - before;
  // Uploading leaf maxima moves less data than the full I-segment.
  EXPECT_LT(maxima_bytes, tree.host_tree().i_segment_bytes());
}

TEST(MirrorScatter, WritesEachFragmentIntoItsSlotAtTheBound) {
  // The regular tree's two pools, inner then last level, for both key
  // widths: 17 and 9 lines (Key64), 33 and 17 lines (Key32). A line is
  // four lanes' words, so each size's last warp runs 4 of its lanes.
  struct Pair {
    std::size_t lines[2];
  };
  for (const Pair pair : {Pair{{17, 9}}, Pair{{33, 17}}}) {
    SCOPED_TRACE(pair.lines[0]);
    Fixture fx;
    constexpr std::uint32_t kSlots = 64;
    MirrorScatterParams params;
    for (int p = 0; p < 2; ++p) {
      params.fragment_bytes[p] = pair.lines[p] * kCacheLineSize;
      params.pools[p] = fx.device.Malloc(kSlots * params.fragment_bytes[p]);
      std::memset(fx.device.HostView(params.pools[p]), 0,
                  kSlots * params.fragment_bytes[p]);
    }
    // Three inner fragments, then five last-level ones, out of order.
    const std::vector<std::uint32_t> slots = {7, 0, 63, 5, 6, 40, 1, 33};
    params.counts[0] = 3;
    params.counts[1] = static_cast<std::uint32_t>(slots.size()) - 3;
    const std::size_t bytes = params.StagedBytes();
    const std::size_t fragments = bytes - slots.size() * sizeof(std::uint32_t);
    std::vector<std::uint8_t> staged(bytes);
    for (std::size_t i = 0; i < fragments; ++i) {
      staged[i] = static_cast<std::uint8_t>(i * 131 + i / 64);
    }
    std::memcpy(staged.data() + fragments, slots.data(),
                slots.size() * sizeof(std::uint32_t));
    params.staged = fx.device.Malloc(bytes);
    fx.transfer.CopyToDevice(params.staged, staged.data(), bytes);

    const gpu::KernelStats stats = RunMirrorScatterKernel(fx.device, params);
    std::size_t at = 0;  // fragment f's staged offset
    for (std::size_t f = 0; f < slots.size(); ++f) {
      const int p = f < params.counts[0] ? 0 : 1;
      const std::size_t size = params.fragment_bytes[p];
      EXPECT_EQ(std::memcmp(fx.device.HostView(params.pools[p] +
                                               slots[f] * size),
                            staged.data() + at, size),
                0)
          << f;
      at += size;
    }
    EXPECT_EQ(at, fragments);
    const gpu::KernelStats bound = MirrorScatterBound(params);
    EXPECT_EQ(stats.warps_executed, bound.warps_executed);
    EXPECT_EQ(stats.warp_instructions, bound.warp_instructions);
    EXPECT_EQ(stats.memory_gathers, bound.memory_gathers);
    EXPECT_EQ(stats.memory_transactions, bound.memory_transactions);
    EXPECT_EQ(stats.dram_bytes + stats.l2_bytes, bound.dram_bytes);
    EXPECT_EQ(stats.mapped_bytes, 0u);
    EXPECT_LE(gpu::EstimateKernelTime(fx.platform.gpu, fx.platform.pcie,
                                      stats)
                  .total_us,
              gpu::EstimateKernelTime(fx.platform.gpu, fx.platform.pcie,
                                      bound)
                  .total_us);
  }
}

}  // namespace
}  // namespace hbtree
