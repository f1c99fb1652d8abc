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
/// device mirror. One launch serves both of the regular tree's pools,
/// each with its own fragment size: the first `counts[0]` fragments go to
/// `pools[0]`, the next `counts[1]` to `pools[1]`.
struct MirrorScatterParams {
  gpu::DevicePtr staged;    // pool 0's fragments, pool 1's, then the
                            // uint32 slots of all of them
  gpu::DevicePtr pools[2];  // the mirror arrays, indexed by pool slot
  std::uint32_t counts[2] = {0, 0};
  std::size_t fragment_bytes[2] = {0, 0};  // multiples of the 64 B
                                           // transaction

  std::uint32_t count() const { return counts[0] + counts[1]; }
  std::size_t StagedBytes() const {
    return counts[0] * fragment_bytes[0] + counts[1] * fragment_bytes[1] +
           count() * sizeof(std::uint32_t);
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
  gpu::KernelStats stats;
  constexpr int kWarp = gpu::WarpScope::kWarpSize;
  const std::uint64_t slots_at =
      p.StagedBytes() - p.count() * sizeof(std::uint32_t);
  std::uint64_t fragment_at = 0;  // staged offset of fragment f
  std::uint32_t f = 0;
  for (int pool = 0; pool < 2; ++pool) {
    const std::size_t bytes = p.fragment_bytes[pool];
    HBTREE_CHECK(bytes % gpu::WarpScope::kTransactionBytes == 0);
    const std::size_t words = bytes / sizeof(ScatterWord);
    for (std::uint32_t i = 0; i < p.counts[pool];
         ++i, ++f, fragment_at += bytes) {
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
          offsets[lane] = fragment_at + (first + lane) * sizeof(ScatterWord);
        }
        warp.Gather(p.staged, offsets, lanes, word);
        for (int lane = 0; lane < lanes; ++lane) {
          offsets[lane] = static_cast<std::uint64_t>(slot) * bytes +
                          (first + lane) * sizeof(ScatterWord);
        }
        warp.Scatter(p.pools[pool], offsets, lanes, word);
      }
    }
  }
  return stats;
}

/// RunMirrorScatterKernel's stats for `p`'s fragment counts and sizes in
/// closed form, every transaction charged to DRAM: the bound a sync plans
/// with before any launch touches the device L2. A launch matches it in
/// every field but the DRAM / L2 split, so its modelled time never
/// exceeds the bound's.
inline gpu::KernelStats MirrorScatterBound(const MirrorScatterParams& p) {
  gpu::KernelStats stats;
  for (int pool = 0; pool < 2; ++pool) {
    const std::size_t bytes = p.fragment_bytes[pool];
    const std::uint64_t chunks =
        (bytes + kScatterChunkBytes - 1) / kScatterChunkBytes;
    const std::uint64_t lines = bytes / gpu::WarpScope::kTransactionBytes;
    stats.warps_executed += p.counts[pool] * chunks;
    // Per fragment: one slot load per warp, one load and one store per
    // line.
    stats.memory_transactions += p.counts[pool] * (chunks + 2 * lines);
  }
  // Per warp: the slot load, the chunk load and the chunk store.
  stats.warp_instructions = 3 * stats.warps_executed;
  stats.memory_gathers = 3 * stats.warps_executed;
  stats.dram_bytes =
      stats.memory_transactions * gpu::WarpScope::kTransactionBytes;
  return stats;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_MIRROR_SCATTER_H_
