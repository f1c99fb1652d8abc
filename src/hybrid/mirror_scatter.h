#ifndef HBTREE_HYBRID_MIRROR_SCATTER_H_
#define HBTREE_HYBRID_MIRROR_SCATTER_H_

#include <algorithm>
#include <cstdint>

#include "core/macros.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"

namespace hbtree {

/// Device half of the staged delta sync of an I-segment mirror (Section
/// 5.6, DESIGN.md §14). The host packs a batch's dirty hot fragments,
/// then their pool slots, into one buffer and uploads it in one streamed
/// transfer; this kernel writes each fragment into its slot of the
/// device mirror. One launch serves both of the regular tree's pools:
/// fragments [0, inner_count) go to `pools[0]`, the rest to `pools[1]`.
struct MirrorScatterParams {
  gpu::DevicePtr staged;    // fragments[count], then uint32 slots[count]
  gpu::DevicePtr pools[2];  // the mirror arrays, indexed by pool slot
  std::uint32_t inner_count = 0;
  std::uint32_t count = 0;
  std::size_t fragment_bytes = 0;  // a multiple of the 64 B transaction

  static std::size_t StagedBytes(std::size_t count,
                                 std::size_t fragment_bytes) {
    return count * (fragment_bytes + sizeof(std::uint32_t));
  }
};

/// What one lane moves per access: 16 bytes, a vectorized (uint4) load
/// or store.
struct ScatterWord {
  std::uint64_t half[2];
};

/// Bytes of a fragment one warp moves: one word per lane.
inline constexpr std::size_t kScatterChunkBytes =
    gpu::WarpScope::kWarpSize * sizeof(ScatterWord);

/// One warp per 512-byte chunk of a fragment: lane 0 loads the fragment's
/// slot, then the lanes load the chunk's words from the staging buffer
/// and store them into the slot. Both accesses are aligned and
/// contiguous, so each coalesces into one transaction per 64 bytes.
inline gpu::KernelStats RunMirrorScatterKernel(gpu::Device& device,
                                               const MirrorScatterParams& p) {
  HBTREE_CHECK(p.fragment_bytes % gpu::WarpScope::kTransactionBytes == 0);
  gpu::KernelStats stats;
  constexpr int kWarp = gpu::WarpScope::kWarpSize;
  const std::size_t words = p.fragment_bytes / sizeof(ScatterWord);
  const std::uint64_t slots_at =
      static_cast<std::uint64_t>(p.count) * p.fragment_bytes;
  for (std::uint32_t f = 0; f < p.count; ++f) {
    const gpu::DevicePtr pool = p.pools[f < p.inner_count ? 0 : 1];
    for (std::size_t first = 0; first < words; first += kWarp) {
      const int lanes = static_cast<int>(std::min<std::size_t>(
          kWarp, words - first));
      gpu::WarpScope warp(&device, &stats, lanes);
      std::uint64_t offsets[kWarp];
      offsets[0] = slots_at + f * sizeof(std::uint32_t);
      std::uint32_t slot = 0;
      warp.Gather(p.staged, offsets, 1, &slot);
      ScatterWord word[kWarp];
      for (int lane = 0; lane < lanes; ++lane) {
        offsets[lane] = static_cast<std::uint64_t>(f) * p.fragment_bytes +
                        (first + lane) * sizeof(ScatterWord);
      }
      warp.Gather(p.staged, offsets, lanes, word);
      for (int lane = 0; lane < lanes; ++lane) {
        offsets[lane] = static_cast<std::uint64_t>(slot) * p.fragment_bytes +
                        (first + lane) * sizeof(ScatterWord);
      }
      warp.Scatter(pool, offsets, lanes, word);
    }
  }
  return stats;
}

/// RunMirrorScatterKernel's stats for `count` fragments in closed form,
/// every transaction charged to DRAM: the bound a sync plans with before
/// any launch touches the device L2. A launch matches it in every field
/// but the DRAM / L2 split, so its modelled time never exceeds the
/// bound's.
inline gpu::KernelStats MirrorScatterBound(std::uint64_t count,
                                           std::size_t fragment_bytes) {
  const std::uint64_t chunks =
      (fragment_bytes + kScatterChunkBytes - 1) / kScatterChunkBytes;
  const std::uint64_t lines =
      fragment_bytes / gpu::WarpScope::kTransactionBytes;
  gpu::KernelStats stats;
  stats.warps_executed = count * chunks;
  // Per warp: the slot load, the chunk load and the chunk store.
  stats.warp_instructions = 3 * stats.warps_executed;
  stats.memory_gathers = 3 * stats.warps_executed;
  stats.memory_transactions = count * (chunks + 2 * lines);
  stats.dram_bytes =
      stats.memory_transactions * gpu::WarpScope::kTransactionBytes;
  return stats;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_MIRROR_SCATTER_H_
