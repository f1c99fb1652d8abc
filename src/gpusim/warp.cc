#include "gpusim/warp.h"

#include <algorithm>

#include "core/macros.h"

namespace hbtree::gpu {

WarpScope::WarpScope(Device* device, KernelStats* stats, int active_lanes)
    : device_(device), stats_(stats), active_lanes_(active_lanes) {
  HBTREE_CHECK(device != nullptr && stats != nullptr);
  HBTREE_CHECK(active_lanes >= 1 && active_lanes <= kWarpSize);
}

WarpScope::~WarpScope() { ++stats_->warps_executed; }

std::byte* WarpScope::RecordAccess(DevicePtr base,
                                   const std::uint64_t* lane_offsets,
                                   int lanes, std::size_t width) {
  stats_->warp_instructions += 1;  // the load/store instruction itself
  stats_->memory_gathers += 1;
  std::uint64_t last_offset = 0;
  for (int i = 0; i < lanes; ++i) {
    last_offset = std::max(last_offset, lane_offsets[i]);
  }
  const Device::View view = device_->Resolve(base, last_offset + width);
  if (view.host_mapped) {
    // A store into host-mapped memory is written through to the host over
    // PCIe: it touches neither the device L2 nor DRAM.
    const std::uint64_t bytes = static_cast<std::uint64_t>(lanes) * width;
    stats_->mapped_bytes += bytes;
    device_->RecordMappedStore(bytes);
    return view.data;
  }
  // Coalescing: collect the distinct aligned 64-byte segments the lanes
  // touch; each distinct segment is one memory transaction (the GPU
  // "translates the access into one or more aligned data transfers",
  // Section 5.2). An element straddling a segment boundary costs two.
  std::uint64_t segments[2 * kWarpSize];
  int count = 0;
  bool sorted = true;
  for (int i = 0; i < lanes; ++i) {
    std::uint64_t first = (base.offset + lane_offsets[i]) / kTransactionBytes;
    std::uint64_t last =
        (base.offset + lane_offsets[i] + width - 1) / kTransactionBytes;
    if (count > 0 && first < segments[count - 1]) sorted = false;
    segments[count++] = first;
    if (last != first) segments[count++] = last;
  }
  // The batch kernels emit lane offsets in ascending order (sorted
  // queries, ascending lanes within a team), so the segment list usually
  // arrives pre-sorted and only adjacent duplicates need collapsing.
  if (!sorted) std::sort(segments, segments + count);
  const auto* end = std::unique(segments, segments + count);
  for (const std::uint64_t* seg = segments; seg != end; ++seg) {
    ++stats_->memory_transactions;
    // Each transaction consumes DRAM bandwidth only when it misses the
    // device L2 — this is what lets skewed query streams outrun uniform
    // ones on the GPU as well (Figure 12).
    if (device_->AccessL2(DevicePtr{base.alloc_id, *seg * kTransactionBytes})) {
      stats_->l2_bytes += kTransactionBytes;
    } else {
      stats_->dram_bytes += kTransactionBytes;
    }
  }
  return view.data;
}

void WarpScope::SharedAccess(const int* lane_banks, int lanes) {
  // Conflict degree = max number of lanes hitting the same bank; the warp
  // replays the access that many times.
  int per_bank[kSharedBanks] = {0};
  for (int i = 0; i < lanes; ++i) {
    HBTREE_DCHECK(lane_banks[i] >= 0 && lane_banks[i] < kSharedBanks);
    ++per_bank[lane_banks[i]];
  }
  int degree = 1;
  for (int b = 0; b < kSharedBanks; ++b) degree = std::max(degree, per_bank[b]);
  stats_->shared_accesses += 1;
  stats_->shared_bank_conflicts += static_cast<std::uint64_t>(degree - 1);
  stats_->warp_instructions += static_cast<std::uint64_t>(degree);
}

}  // namespace hbtree::gpu
