#ifndef HBTREE_GPUSIM_WARP_H_
#define HBTREE_GPUSIM_WARP_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/macros.h"
#include "gpusim/device.h"

namespace hbtree::gpu {

/// Aggregate execution statistics of one kernel launch, consumed by the
/// kernel cost model.
struct KernelStats {
  std::uint64_t warps_executed = 0;
  std::uint64_t warp_instructions = 0;    // issued warp-wide instructions
  std::uint64_t memory_gathers = 0;       // dependent warp-wide loads/stores
  std::uint64_t memory_transactions = 0;  // coalesced 64 B segments
  std::uint64_t dram_bytes = 0;           // segment bytes missing device L2
  std::uint64_t l2_bytes = 0;             // segment bytes served by L2
  /// Payload bytes stored into host-mapped memory: they stream over PCIe
  /// as the kernel runs and touch neither the L2 nor device DRAM.
  std::uint64_t mapped_bytes = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t shared_bank_conflicts = 0;

  /// Level-wise dispatch accounting (DESIGN.md §14), indexed by tree
  /// level: `node_loads_by_level[l]` counts the inner nodes the launch
  /// actually loaded from device memory at level l (one per run of
  /// consecutive queries sharing a node), `node_queries_by_level[l]` the
  /// queries resolved there. Empty for HB-FAST's block search, the one
  /// kernel without run dedup.
  std::vector<std::uint64_t> node_loads_by_level;
  std::vector<std::uint64_t> node_queries_by_level;

  KernelStats& operator+=(const KernelStats& other) {
    warps_executed += other.warps_executed;
    warp_instructions += other.warp_instructions;
    memory_gathers += other.memory_gathers;
    memory_transactions += other.memory_transactions;
    dram_bytes += other.dram_bytes;
    l2_bytes += other.l2_bytes;
    mapped_bytes += other.mapped_bytes;
    shared_accesses += other.shared_accesses;
    shared_bank_conflicts += other.shared_bank_conflicts;
    MergeLevels(&node_loads_by_level, other.node_loads_by_level);
    MergeLevels(&node_queries_by_level, other.node_queries_by_level);
    return *this;
  }

 private:
  static void MergeLevels(std::vector<std::uint64_t>* into,
                          const std::vector<std::uint64_t>& from) {
    if (from.size() > into->size()) into->resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
  }
};

/// Warp-synchronous execution scope.
///
/// Kernels in this repository are written in the warp-synchronous style
/// the paper's Snippet 3 uses: threads of a warp proceed in lockstep, so a
/// per-lane loop between two statements is semantically a `__syncthreads`
/// at warp granularity. The scope's job is the accounting a real GPU does
/// in hardware:
///
///  * `Gather` / `Scatter` — per-lane device memory accesses, coalesced
///    into aligned 32/64/128-byte transactions exactly as the CUDA
///    programming guide describes (Appendix C); the transaction count is
///    what makes 64-byte-node layouts win (Section 5.2). A store into
///    host-mapped memory is no transaction: its payload streams over
///    PCIe (KernelStats::mapped_bytes).
///  * `SharedAccess` — shared memory with 32-bank conflict modelling.
///  * `Instruction` — warp-wide instruction issue (the compute side of the
///    cost model).
class WarpScope {
 public:
  static constexpr int kWarpSize = 32;
  static constexpr int kSharedBanks = 32;
  static constexpr std::uint64_t kTransactionBytes = 64;

  WarpScope(Device* device, KernelStats* stats, int active_lanes = kWarpSize);
  ~WarpScope();

  int active_lanes() const { return active_lanes_; }

  /// Per-lane access: lane i touches one element of `width` bytes at
  /// `base + lane_offsets[i]`. Counts coalesced transactions. Kernels only
  /// store into host-mapped memory; such an access adds its payload to
  /// `mapped_bytes` and to the device's mapped-store count instead.
  /// Resolves `base`'s allocation once, checks that every lane's element
  /// lies inside it, and returns its host view at `base`, through which
  /// the caller moves the lanes' data.
  std::byte* RecordAccess(DevicePtr base, const std::uint64_t* lane_offsets,
                          int lanes, std::size_t width);

  /// Typed per-lane load: out[i] = *(T*)(base + lane_offsets[i]).
  /// Functional (reads the backing store) + accounted.
  template <typename T>
  void Gather(DevicePtr base, const std::uint64_t* lane_offsets, int lanes,
              T* out) {
    HBTREE_DCHECK(!device_->IsHostMapped(base));
    const std::byte* view = RecordAccess(base, lane_offsets, lanes, sizeof(T));
    for (int i = 0; i < lanes; ++i) {
      // memcpy, not a typed load: lane offsets need not be aligned to T
      // (a real GPU gather has no such requirement either).
      std::memcpy(&out[i], view + lane_offsets[i], sizeof(T));
    }
  }

  /// Typed per-lane store: *(T*)(base + lane_offsets[i]) = values[i].
  template <typename T>
  void Scatter(DevicePtr base, const std::uint64_t* lane_offsets, int lanes,
               const T* values) {
    std::byte* view = RecordAccess(base, lane_offsets, lanes, sizeof(T));
    for (int i = 0; i < lanes; ++i) {
      std::memcpy(view + lane_offsets[i], &values[i], sizeof(T));
    }
  }

  /// One warp-wide shared-memory access; `lane_banks[i]` is the bank
  /// (word address % 32) lane i touches. Conflicting lanes serialize.
  void SharedAccess(const int* lane_banks, int lanes);

  /// One warp-wide shared-memory access where lane i touches bank
  /// `i % kSharedBanks` — the stride-1 word layout every kernel here uses
  /// for its per-thread flag arrays. The conflict degree is then
  /// ceil(lanes / kSharedBanks) by construction (at most one replay per
  /// full wrap of the banks), so the accounting is closed-form and the
  /// per-call 32-bank histogram of SharedAccess() is skipped. Charges
  /// exactly what SharedAccess(identity_banks, lanes) would.
  void SharedAccessUniform(int lanes) {
    const int degree = (lanes + kSharedBanks - 1) / kSharedBanks;
    stats_->shared_accesses += 1;
    stats_->shared_bank_conflicts += static_cast<std::uint64_t>(degree - 1);
    stats_->warp_instructions += static_cast<std::uint64_t>(degree);
  }

  /// `count` warp-wide ALU/control instructions.
  void Instruction(int count = 1) {
    stats_->warp_instructions += static_cast<std::uint64_t>(count);
  }

  Device* device() { return device_; }

 private:
  Device* device_;
  KernelStats* stats_;
  int active_lanes_;
};

}  // namespace hbtree::gpu

#endif  // HBTREE_GPUSIM_WARP_H_
