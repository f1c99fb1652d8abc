#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gpusim/cost_model.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"
#include "sim/platform.h"

namespace hbtree::gpu {
namespace {

sim::GpuSpec TestSpec() { return sim::PlatformSpec::M1().gpu; }
sim::PcieSpec TestLink() { return sim::PlatformSpec::M1().pcie; }

TEST(Device, AllocFreeTracksCapacity) {
  sim::GpuSpec spec = TestSpec();
  spec.memory_bytes = 1 << 20;
  Device device(spec);
  DevicePtr a = device.Malloc(512 * 1024);
  EXPECT_EQ(device.used_bytes(), 512u * 1024);
  DevicePtr b = device.TryMalloc(600 * 1024);
  EXPECT_TRUE(b.is_null());  // over capacity
  device.Free(a);
  EXPECT_EQ(device.used_bytes(), 0u);
  DevicePtr c = device.TryMalloc(1 << 20);
  EXPECT_FALSE(c.is_null());
}

TEST(Device, HostViewRoundTrips) {
  Device device(TestSpec());
  DevicePtr ptr = device.Malloc(4096);
  std::memset(device.HostView(ptr), 0x5a, 4096);
  EXPECT_EQ(static_cast<unsigned char>(*device.HostView(ptr + 4095)), 0x5au);
}

TEST(Transfer, FunctionalCopyAndPaperCostModel) {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  Device device(platform.gpu);
  TransferEngine transfer(&device, platform.pcie);
  DevicePtr dev = device.Malloc(1 << 16);
  std::vector<std::uint8_t> src(1 << 16, 0xcd), dst(1 << 16, 0);

  double h2d = transfer.CopyToDevice(dev, src.data(), src.size());
  std::memcpy(dst.data(), device.HostView(dev), dst.size());
  EXPECT_EQ(dst, src);

  // T = T_init + bytes / BW (Section 5.4).
  EXPECT_NEAR(h2d,
              platform.pcie.transfer_init_us +
                  65536.0 / (platform.pcie.bandwidth_h2d_gbps * 1e3),
              1e-9);
  EXPECT_GT(h2d, 0);
  // Streamed small copies amortize the initialization latency.
  double streamed = transfer.StreamedCopyToDevice(dev, src.data(), 1024);
  double individual = transfer.HostToDeviceUs(1024);
  EXPECT_LT(streamed, individual);
}

TEST(Warp, CoalescingCountsDistinctSegments) {
  Device device(TestSpec());
  DevicePtr buffer = device.Malloc(1 << 20);
  KernelStats stats;
  {
    WarpScope warp(&device, &stats, 32);
    std::uint64_t offsets[32];
    // All 32 lanes within one 64-byte segment -> 1 transaction.
    for (int lane = 0; lane < 32; ++lane) offsets[lane] = (lane % 8) * 8;
    std::uint64_t out[32];
    warp.Gather(buffer, offsets, 32, out);
    EXPECT_EQ(stats.memory_transactions, 1u);

    // 32 lanes scattered to 32 distinct segments -> 32 transactions.
    for (int lane = 0; lane < 32; ++lane) offsets[lane] = lane * 64;
    warp.Gather(buffer, offsets, 32, out);
    EXPECT_EQ(stats.memory_transactions, 1u + 32u);

    // Straddling a segment boundary costs two.
    offsets[0] = 60;
    warp.Gather(buffer, offsets, 1, out);
    EXPECT_EQ(stats.memory_transactions, 1u + 32u + 2u);
  }
  EXPECT_EQ(stats.warps_executed, 1u);
  EXPECT_EQ(stats.memory_gathers, 3u);
}

TEST(Warp, GatherScatterAreFunctional) {
  Device device(TestSpec());
  DevicePtr buffer = device.Malloc(4096);
  KernelStats stats;
  WarpScope warp(&device, &stats, 8);
  std::uint64_t offsets[8];
  std::uint64_t values[8];
  for (int lane = 0; lane < 8; ++lane) {
    offsets[lane] = lane * 8;
    values[lane] = lane * 111;
  }
  warp.Scatter(buffer, offsets, 8, values);
  std::uint64_t readback[8] = {};
  warp.Gather(buffer, offsets, 8, readback);
  for (int lane = 0; lane < 8; ++lane) EXPECT_EQ(readback[lane], values[lane]);
}

TEST(WarpDeathTest, LaneStraddlingTheAllocationEndAborts) {
  // Lane 1's element starts inside the 64-byte allocation and ends 4
  // bytes past it. The access is checked once, over every lane, before
  // any lane's data moves; lane 1 at offset 56 would end exactly at it.
  Device device(TestSpec());
  DevicePtr buffer = device.Malloc(64);
  KernelStats stats;
  const std::uint64_t offsets[2] = {0, 60};
  std::uint64_t values[2] = {1, 2};
  EXPECT_DEATH(
      {
        WarpScope warp(&device, &stats, 2);
        warp.Gather(buffer, offsets, 2, values);
      },
      "HBTREE_CHECK failed");
  EXPECT_DEATH(
      {
        WarpScope warp(&device, &stats, 2);
        warp.Scatter(buffer, offsets, 2, values);
      },
      "HBTREE_CHECK failed");
  const std::uint64_t fits[2] = {0, 56};
  WarpScope warp(&device, &stats, 2);
  warp.Scatter(buffer, fits, 2, values);
  EXPECT_EQ(device.HostViewAs<std::uint64_t>(buffer)[7], 2u);
}

TEST(Warp, MappedStoreStreamsItsPayloadOverTheLink) {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  Device device(platform.gpu);
  TransferEngine transfer(&device, platform.pcie);
  DevicePtr mapped = device.TryMalloc(4096, MemoryKind::kHostMapped);
  ASSERT_FALSE(mapped.is_null());
  EXPECT_TRUE(device.IsHostMapped(mapped));
  EXPECT_EQ(device.used_bytes(), 0u);  // host memory, not device memory

  KernelStats stats;
  {
    WarpScope warp(&device, &stats, 8);
    std::uint64_t offsets[8];
    std::uint32_t values[8];
    for (int lane = 0; lane < 8; ++lane) {
      offsets[lane] = lane * 64;  // eight distinct segments
      values[lane] = 7u * lane + 1;
    }
    warp.Scatter(mapped, offsets, 8, values);
    // The host reads the stored words in place.
    for (int lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(device.HostViewAs<std::uint32_t>(mapped + lane * 64)[0],
                values[lane]);
    }
  }
  EXPECT_EQ(stats.mapped_bytes, 8u * sizeof(std::uint32_t));
  EXPECT_EQ(transfer.bytes_d2h(), 8u * sizeof(std::uint32_t));
  EXPECT_EQ(transfer.transfers(), 0u);  // no copy was submitted
  EXPECT_EQ(stats.memory_transactions, 0u);
  EXPECT_EQ(stats.dram_bytes + stats.l2_bytes, 0u);
  EXPECT_EQ(device.l2().hits() + device.l2().misses(), 0u);  // no L2 access
  device.Free(mapped);
  EXPECT_EQ(device.used_bytes(), 0u);
}

TEST(Warp, SharedMemoryBankConflicts) {
  Device device(TestSpec());
  KernelStats stats;
  WarpScope warp(&device, &stats, 32);
  int banks[32];
  for (int lane = 0; lane < 32; ++lane) banks[lane] = lane;  // conflict-free
  warp.SharedAccess(banks, 32);
  EXPECT_EQ(stats.shared_bank_conflicts, 0u);
  for (int lane = 0; lane < 32; ++lane) banks[lane] = lane % 2;  // 16-way
  warp.SharedAccess(banks, 32);
  EXPECT_EQ(stats.shared_bank_conflicts, 15u);
}

TEST(DeviceL2, SkewRaisesHitRate) {
  Device device(TestSpec());
  DevicePtr buffer = device.Malloc(256 << 20);  // far beyond L2
  KernelStats uniform_stats, skew_stats;
  std::uint64_t offsets[32];
  std::uint64_t out[32];
  // Uniform: new segments every access.
  for (int round = 0; round < 200; ++round) {
    WarpScope warp(&device, &uniform_stats, 32);
    for (int lane = 0; lane < 32; ++lane) {
      offsets[lane] = ((round * 37 + lane) * 64993ull * 64) % (200 << 20);
    }
    warp.Gather(buffer, offsets, 32, out);
  }
  for (int round = 0; round < 200; ++round) {
    WarpScope warp(&device, &skew_stats, 32);
    for (int lane = 0; lane < 32; ++lane) {
      offsets[lane] = (lane % 4) * 64;  // four hot segments
    }
    warp.Gather(buffer, offsets, 32, out);
  }
  EXPECT_GT(uniform_stats.dram_bytes, skew_stats.dram_bytes * 5);
  EXPECT_GT(skew_stats.l2_bytes, uniform_stats.l2_bytes);
}

TEST(KernelCostModel, MemoryBoundVsComputeBound) {
  sim::GpuSpec spec = TestSpec();
  KernelStats stats;
  stats.warps_executed = 10000;
  stats.memory_gathers = 10000 * 8;
  stats.memory_transactions = 10000 * 32;
  stats.dram_bytes = stats.memory_transactions * 64;
  stats.warp_instructions = 10000 * 10;
  KernelTime memory_bound = EstimateKernelTime(spec, TestLink(), stats);
  EXPECT_STREQ(memory_bound.bound, "memory");

  stats.dram_bytes = 64;
  stats.l2_bytes = 0;
  stats.memory_transactions = 1;
  stats.memory_gathers = 1;
  stats.warp_instructions = 100000000;
  KernelTime compute_bound = EstimateKernelTime(spec, TestLink(), stats);
  EXPECT_STREQ(compute_bound.bound, "compute");
  EXPECT_GT(compute_bound.total_us, spec.kernel_launch_us);
}

TEST(KernelCostModel, LowOccupancyIsLatencyBound) {
  sim::GpuSpec spec = TestSpec();
  KernelStats stats;
  stats.warps_executed = 4;  // nearly empty machine
  stats.memory_gathers = 4 * 1000;
  stats.memory_transactions = 4 * 1000;
  stats.dram_bytes = stats.memory_transactions * 64;
  stats.warp_instructions = 4 * 1000;
  KernelTime t = EstimateKernelTime(spec, TestLink(), stats);
  EXPECT_STREQ(t.bound, "latency");
}

TEST(KernelCostModel, MappedStreamOverlapsTheBody) {
  const sim::GpuSpec spec = TestSpec();
  const sim::PcieSpec link = TestLink();
  KernelStats stats;
  stats.warps_executed = 1;
  stats.memory_gathers = 2;
  stats.memory_transactions = 1;
  stats.dram_bytes = 64;
  stats.warp_instructions = 4;
  const KernelTime body = EstimateKernelTime(spec, link, stats);

  // A tiny body with a large mapped store: the stream is the kernel time,
  // K_init on top and no transfer T_init.
  stats.mapped_bytes = 1 << 20;
  const double stream = (1 << 20) / (link.bandwidth_d2h_gbps * 1e3);
  const KernelTime streamed = EstimateKernelTime(spec, link, stats);
  EXPECT_GT(stream, body.total_us - body.launch_us);
  EXPECT_DOUBLE_EQ(streamed.stream_us, stream);
  EXPECT_DOUBLE_EQ(streamed.total_us, spec.kernel_launch_us + stream);
  EXPECT_STREQ(streamed.bound, "stream");

  // A stream shorter than the body hides inside it.
  stats.mapped_bytes = 64;
  const KernelTime hidden = EstimateKernelTime(spec, link, stats);
  EXPECT_LT(hidden.stream_us, body.total_us - body.launch_us);
  EXPECT_DOUBLE_EQ(hidden.total_us, body.total_us);
  EXPECT_STREQ(hidden.bound, body.bound);
}

TEST(KernelCostModel, LaunchOverheadDominatesTinyKernels) {
  sim::GpuSpec spec = TestSpec();
  KernelStats stats;
  stats.warps_executed = 1;
  stats.memory_gathers = 1;
  stats.memory_transactions = 1;
  stats.dram_bytes = 64;
  stats.warp_instructions = 4;
  KernelTime t = EstimateKernelTime(spec, TestLink(), stats);
  EXPECT_GT(t.launch_us / t.total_us, 0.9);
}

}  // namespace
}  // namespace hbtree::gpu
