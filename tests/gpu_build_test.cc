#include "hybrid/gpu_build.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/workload.h"
#include "gpusim/cost_model.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/mirror_scatter.h"
#include "sim/platform.h"

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
    auto data = GenerateDataset<K>(n, /*seed=*/n);
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
  auto data = GenerateDataset<Key64>(200000, /*seed=*/7);
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
  auto data = GenerateDataset<Key64>(1 << 20, /*seed=*/8);
  ASSERT_TRUE(tree.Build(data));

  const std::uint64_t before = fx.transfer.bytes_h2d();
  BuildISegmentOnDevice<Key64>(tree.host_tree(), fx.device, fx.transfer,
                               tree.device_nodes());
  const std::uint64_t maxima_bytes = fx.transfer.bytes_h2d() - before;
  // Uploading leaf maxima moves less data than the full I-segment.
  EXPECT_LT(maxima_bytes, tree.host_tree().i_segment_bytes());
}

TEST(MirrorScatter, WritesEachFragmentIntoItsSlotAtTheBound) {
  // Both regular-tree fragment sizes: 17 lines (Key64), where the last
  // warp of a fragment runs 4 of its lanes, and 33 lines (Key32).
  for (const std::size_t fragment_bytes : {17 * kCacheLineSize,
                                           33 * kCacheLineSize}) {
    SCOPED_TRACE(fragment_bytes);
    Fixture fx;
    constexpr std::uint32_t kSlots = 64;
    gpu::DevicePtr pools[2] = {fx.device.Malloc(kSlots * fragment_bytes),
                               fx.device.Malloc(kSlots * fragment_bytes)};
    for (gpu::DevicePtr pool : pools) {
      std::memset(fx.device.HostView(pool), 0, kSlots * fragment_bytes);
    }
    // Three inner fragments, then five last-level ones, out of order.
    const std::vector<std::uint32_t> slots = {7, 0, 63, 5, 6, 40, 1, 33};
    MirrorScatterParams params;
    params.pools[0] = pools[0];
    params.pools[1] = pools[1];
    params.inner_count = 3;
    params.count = static_cast<std::uint32_t>(slots.size());
    params.fragment_bytes = fragment_bytes;
    const std::size_t bytes =
        MirrorScatterParams::StagedBytes(slots.size(), fragment_bytes);
    std::vector<std::uint8_t> staged(bytes);
    for (std::size_t i = 0; i < slots.size() * fragment_bytes; ++i) {
      staged[i] = static_cast<std::uint8_t>(i * 131 + i / fragment_bytes);
    }
    std::memcpy(staged.data() + slots.size() * fragment_bytes, slots.data(),
                slots.size() * sizeof(std::uint32_t));
    params.staged = fx.device.Malloc(bytes);
    fx.transfer.CopyToDevice(params.staged, staged.data(), bytes);

    const gpu::KernelStats stats = RunMirrorScatterKernel(fx.device, params);
    for (std::size_t f = 0; f < slots.size(); ++f) {
      const gpu::DevicePtr pool = pools[f < params.inner_count ? 0 : 1];
      EXPECT_EQ(std::memcmp(fx.device.HostView(pool +
                                               slots[f] * fragment_bytes),
                            staged.data() + f * fragment_bytes,
                            fragment_bytes),
                0)
          << f;
    }
    const gpu::KernelStats bound =
        MirrorScatterBound(slots.size(), fragment_bytes);
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
