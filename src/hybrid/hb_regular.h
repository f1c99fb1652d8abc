#ifndef HBTREE_HYBRID_HB_REGULAR_H_
#define HBTREE_HYBRID_HB_REGULAR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"
#include "cpubtree/regular_btree.h"
#include "fault/fault_injector.h"
#include "gpusim/cost_model.h"
#include "gpusim/device.h"
#include "hybrid/gpu_kernels.h"
#include "hybrid/mirror_scatter.h"
#include "mem/page_allocator.h"

namespace hbtree {

/// Regular HB+-tree (Sections 5.2, 5.6): the pointer-based variant that
/// supports efficient batch updates.
///
/// Both inner pools' hot fragments (all inner levels, including the last)
/// form the I-segment mirrored into device memory as two flat arrays
/// indexed by pool slot, so the host's child references are valid device
/// indices without translation. Each array has its pool's fragment size:
/// 17 cache lines above the last level, 9 at it (64-bit keys; 33 and 17
/// for 32-bit keys). Cold fragments and big leaves stay on the CPU only.
///
/// Synchronization (Section 5.6) offers the paper's two granularities,
/// both fault-aware:
///  * TrySyncNode — one hot fragment per modified node (the synchronous
///    method's unit of transfer);
///  * TrySyncISegment — the mirror at once (the asynchronous method),
///    shipping only the dirty fragments when that is cheaper.
template <typename K>
class HBRegularTree {
 public:
  using Hot = RegularInnerHot<K>;
  using LastHot = RegularLastInnerHot<K>;

  struct Config {
    typename RegularBTree<K>::Config tree;
    /// TrySyncISegment keeps the full-mirror upload when this fraction
    /// of its modelled cost undercuts both delta plans' closed forms.
    /// Below 1.0 keeps a margin so borderline batches prefer the simpler
    /// full path; 0 keeps it for every batch that dirtied a fragment.
    double delta_sync_cost_margin = 0.9;
  };

  HBRegularTree(const Config& config, PageRegistry* registry,
                gpu::Device* device, gpu::TransferEngine* transfer)
      : config_(config),
        host_tree_(config.tree, registry),
        device_(device),
        transfer_(transfer) {
    HBTREE_CHECK(device != nullptr && transfer != nullptr);
  }

  ~HBRegularTree() { FreeDeviceArrays(); }

  HBRegularTree(const HBRegularTree&) = delete;
  HBRegularTree& operator=(const HBRegularTree&) = delete;

  /// Builds the host tree and mirrors the I-segment. Fails with
  /// kOutOfRange when the kernels' result word cannot address every
  /// last-level node, and with kDeviceOom when the mirror does not fit
  /// into device memory.
  Status TryBuild(const std::vector<KeyValue<K>>& sorted_pairs) {
    host_tree_.Build(sorted_pairs);
    return TryReallocAndSync();
  }
  bool Build(const std::vector<KeyValue<K>>& sorted_pairs) {
    return TryBuild(sorted_pairs).ok();
  }

  /// Copies one modified node's hot fragment to the device. A node beyond
  /// the device arrays (rare) grows them through TrySyncISegment, costed
  /// as a full upload. On an injected transfer fault nothing is copied,
  /// the mirror is marked stale (mirror_valid() == false — the host node
  /// changed but the device copy did not) and a transient Status is
  /// returned. On success `*us` (optional) receives the modelled transfer
  /// time in µs; a node-granular success does NOT restore a mirror
  /// already marked stale.
  Status TrySyncNode(const ModifiedNode& node, double* us = nullptr) {
    if (node.ref >= (node.last_level ? last_capacity_ : inner_capacity_)) {
      return TrySyncISegment(us);
    }
    HBTREE_RETURN_IF_ERROR(CheckUpload());
    const double t =
        node.last_level
            ? StreamRun(host_tree_.leaf_pool(), node.ref, 1, device_last_)
            : StreamRun(host_tree_.inner_pool(), node.ref, 1, device_inner_);
    if (us != nullptr) *us = t;
    return Status::Ok();
  }

  /// Fault-aware I-segment sync, delta-first (Section 5.6). When the
  /// mirror is valid and the device arrays are big enough, it prices
  /// three plans in closed form before it touches the device, and runs
  /// the cheapest:
  ///  * stream: each coalesced run of dirty hot fragments as its own
  ///    streamed transfer;
  ///  * staged: the dirty fragments and their slots packed into one
  ///    buffer, uploaded in one streamed transfer and written into the
  ///    mirror by one scatter launch (hybrid/mirror_scatter.h), priced at
  ///    the launch's all-DRAM bound and charged at its modelled time;
  ///  * full: the whole mirror, kept whenever delta_sync_cost_margin
  ///    times its cost undercuts both.
  /// A stale mirror, or one whose arrays the pools outgrew, takes the
  /// full upload. Either delta plan is one H2D transfer for fault
  /// purposes; the staged plan's buffer is allocated per sync, and when
  /// it does not fit the runs are streamed instead.
  /// A delta-path fault marks the mirror stale but KEEPS the dirty marks,
  /// so the retry — which sees mirror_valid() == false — takes the full
  /// path and repairs everything the delta would have missed. Failure on
  /// the full path behaves as before (device OOM or injected transfer
  /// fault → stale mirror); success restores it — the recovery path a
  /// circuit breaker probes. `*scatter` (optional) receives the stats of
  /// the staged plan's launch; other plans leave it untouched.
  Status TrySyncISegment(double* us = nullptr,
                         gpu::KernelStats* scatter = nullptr) {
    const bool fits = host_tree_.inner_pool().high_water() <=
                          inner_capacity_ &&
                      host_tree_.leaf_pool().high_water() <= last_capacity_;
    if (!fits || !mirror_valid()) return FullSync(us);
    const DeltaPlan plan = PlanDelta();
    if (config_.delta_sync_cost_margin *
            transfer_->HostToDeviceUs(i_segment_bytes()) <
        std::min(plan.stream_us, plan.staged_us)) {
      return FullSync(us);
    }
    // Either delta plan: one H2D transfer for fault purposes.
    HBTREE_RETURN_IF_ERROR(CheckUpload());
    double t = 0;
    const bool staged =
        plan.staged_us < plan.stream_us && StageDirty(plan, &t, scatter);
    if (!staged) {
      t = StreamDirty(host_tree_.inner_pool(), plan.slots[0], device_inner_) +
          StreamDirty(host_tree_.leaf_pool(), plan.slots[1], device_last_);
    }
    host_tree_.inner_pool().ClearDirty();
    host_tree_.leaf_pool().ClearDirty();
    delta_syncs_.fetch_add(1, std::memory_order_relaxed);
    delta_nodes_synced_.fetch_add(plan.slots[0].size() + plan.slots[1].size(),
                                  std::memory_order_relaxed);
    if (us != nullptr) *us = t;
    return Status::Ok();
  }

  /// Sync-path outcome counters (serve/bench observability).
  std::uint64_t delta_syncs() const {
    return delta_syncs_.load(std::memory_order_relaxed);
  }
  std::uint64_t full_syncs() const {
    return full_syncs_.load(std::memory_order_relaxed);
  }
  std::uint64_t delta_nodes_synced() const {
    return delta_nodes_synced_.load(std::memory_order_relaxed);
  }

  /// True while the device mirror reflects every host-side update that
  /// was synced. GPU lookups through a stale mirror would silently return
  /// wrong results, so serving code must check this before taking the
  /// device path and fall back to CPU-only search while it is false.
  bool mirror_valid() const {
    return mirror_valid_.load(std::memory_order_relaxed);
  }

  /// Kernel launch parameters for a bucket of `count` queries in device
  /// memory (see RunRegularInnerSearch).
  RegularKernelParams<K> MakeKernelParams(
      gpu::DevicePtr queries, gpu::DevicePtr results, std::uint32_t count,
      int start_level = -1,
      gpu::DevicePtr start_nodes = gpu::DevicePtr{}) const {
    HBTREE_CHECK(!device_inner_.is_null() || host_tree_.height() == 1);
    RegularKernelParams<K> params;
    params.inner_hot = device_inner_;
    params.last_hot = device_last_;
    params.root = host_tree_.root();
    params.start_level =
        start_level < 0 ? host_tree_.height() : start_level;
    params.launch = {queries, start_nodes, results, count};
    return params;
  }

  const RegularBTree<K>& host_tree() const { return host_tree_; }
  RegularBTree<K>& host_tree() { return host_tree_; }
  gpu::Device& device() { return *device_; }
  gpu::TransferEngine& transfer() { return *transfer_; }

  /// Test hook, the mirror's counterpart of the host tree's Validate():
  /// true when slots [0, high_water) of both device arrays equal the
  /// pools' hot fragments byte for byte.
  bool MirrorMatchesHost() const {
    return PoolMatches(host_tree_.inner_pool(), device_inner_) &&
           PoolMatches(host_tree_.leaf_pool(), device_last_);
  }

  std::size_t i_segment_bytes() const { return host_tree_.i_segment_bytes(); }

 private:
  void FreeDeviceArrays() {
    if (!device_inner_.is_null()) device_->Free(device_inner_);
    if (!device_last_.is_null()) device_->Free(device_last_);
    device_inner_ = gpu::DevicePtr{};
    device_last_ = gpu::DevicePtr{};
    inner_capacity_ = last_capacity_ = 0;
  }

  using Index = typename RegularBTree<K>::InnerPool::Index;

  /// Headroom factor for the device arrays so node allocations from
  /// updates rarely force a device realloc.
  static constexpr double kDeviceHeadroom = 1.25;

  /// The fault check of one H2D upload into the mirror. An injected fault
  /// copies nothing, so the mirror goes stale (the host changed, the
  /// device copy did not) and the fault's status is returned.
  Status CheckUpload() {
    fault::FaultInjector* injector = device_->fault_injector();
    if (injector == nullptr) return Status::Ok();
    Status status = injector->Check(fault::Site::kTransferH2D);
    if (!status.ok()) mirror_valid_.store(false, std::memory_order_relaxed);
    return status;
  }

  /// The delta plans' closed forms over the sorted dirty slots.
  struct DeltaPlan {
    std::vector<Index> slots[2];  // inner pool, last-level pool
    double stream_us = 0;         // one streamed transfer per run
    double staged_us = 0;         // one packed transfer + scatter bound
  };

  DeltaPlan PlanDelta() const {
    DeltaPlan plan;
    plan.slots[0] = host_tree_.inner_pool().dirty_slots();
    plan.slots[1] = host_tree_.leaf_pool().dirty_slots();
    for (std::vector<Index>& slots : plan.slots) {
      std::sort(slots.begin(), slots.end());
    }
    // Summed as StreamDirty sums what it copies.
    auto stream_us = [&](const auto& pool, const std::vector<Index>& slots) {
      double t = 0;
      ForEachRun(pool, slots, [&](Index, std::size_t run) {
        t += transfer_->StreamedHostToDeviceUs(run * pool.kPrimaryBytes);
      });
      return t;
    };
    plan.stream_us = stream_us(host_tree_.inner_pool(), plan.slots[0]) +
                     stream_us(host_tree_.leaf_pool(), plan.slots[1]);
    const MirrorScatterParams scatter = ScatterParams(plan);
    plan.staged_us =
        transfer_->StreamedHostToDeviceUs(scatter.StagedBytes()) +
        gpu::EstimateKernelTime(device_->spec(), transfer_->pcie(),
                                MirrorScatterBound(scatter))
            .total_us;
    return plan;
  }

  /// The staged plan's launch for `plan`, without its staging buffer.
  MirrorScatterParams ScatterParams(const DeltaPlan& plan) const {
    MirrorScatterParams params;
    params.pools[0] = device_inner_;
    params.pools[1] = device_last_;
    params.counts[0] = static_cast<std::uint32_t>(plan.slots[0].size());
    params.counts[1] = static_cast<std::uint32_t>(plan.slots[1].size());
    params.fragment_bytes[0] = sizeof(Hot);
    params.fragment_bytes[1] = sizeof(LastHot);
    return params;
  }

  /// Calls fn(first, length) for each run of consecutive slots in sorted
  /// `slots` that stays within one chunk of `pool` (host storage is
  /// contiguous only within a chunk): one streamed transfer each.
  template <typename Pool, typename Fn>
  static void ForEachRun(const Pool& pool, const std::vector<Index>& slots,
                         Fn&& fn) {
    const std::size_t chunk_slots = pool.chunk_capacity();
    std::size_t i = 0;
    while (i < slots.size()) {
      std::size_t j = i + 1;
      while (j < slots.size() && slots[j] == slots[j - 1] + 1 &&
             slots[j] / chunk_slots == slots[i] / chunk_slots) {
        ++j;
      }
      fn(slots[i], j - i);
      i = j;
    }
  }

  /// The stream plan for one pool; returns its modelled time.
  template <typename Pool>
  double StreamDirty(const Pool& pool, const std::vector<Index>& slots,
                     gpu::DevicePtr base) {
    double t = 0;
    ForEachRun(pool, slots, [&](Index first, std::size_t run) {
      t += StreamRun(pool, first, run, base);
    });
    return t;
  }

  /// Streams `run` consecutive hot fragments of `pool` from slot `first`
  /// (within one chunk) into the mirror array at `base`.
  template <typename Pool>
  double StreamRun(const Pool& pool, Index first, std::size_t run,
                   gpu::DevicePtr base) {
    return transfer_->StreamedCopyToDevice(
        base + static_cast<std::uint64_t>(first) * pool.kPrimaryBytes,
        &pool.primary(first), run * pool.kPrimaryBytes);
  }

  /// The staged plan: packs the dirty fragments (inner pool first), then
  /// their slots, uploads them into a staging buffer in one streamed
  /// transfer and scatters them with one launch. Returns false, having
  /// touched nothing, when the staging buffer does not fit on the device.
  bool StageDirty(const DeltaPlan& plan, double* us,
                  gpu::KernelStats* scatter) {
    MirrorScatterParams params = ScatterParams(plan);
    const std::size_t bytes = params.StagedBytes();
    params.staged = device_->TryMallocStaging(bytes);
    if (params.staged.is_null()) return false;
    std::vector<std::byte> packed(bytes);
    std::byte* fragment = packed.data();
    std::byte* slot =
        packed.data() + bytes - params.count() * sizeof(std::uint32_t);
    auto pack = [&](const auto& pool, const std::vector<Index>& slots) {
      for (const Index s : slots) {
        std::memcpy(fragment, &pool.primary(s), pool.kPrimaryBytes);
        std::memcpy(slot, &s, sizeof(Index));
        fragment += pool.kPrimaryBytes;
        slot += sizeof(Index);
      }
    };
    pack(host_tree_.inner_pool(), plan.slots[0]);
    pack(host_tree_.leaf_pool(), plan.slots[1]);
    const double upload_us =
        transfer_->StreamedCopyToDevice(params.staged, packed.data(), bytes);
    const gpu::KernelStats stats = RunMirrorScatterKernel(*device_, params);
    device_->Free(params.staged);
    *us = upload_us + gpu::EstimateKernelTime(device_->spec(),
                                              transfer_->pcie(), stats)
                          .total_us;
    if (scatter != nullptr) *scatter = stats;
    return true;
  }

  Status FullSync(double* us) {
    HBTREE_RETURN_IF_ERROR(TryReallocAndSync(us));
    full_syncs_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }

  /// The full upload; on success `*us` (optional) receives its modelled
  /// time.
  Status TryReallocAndSync(double* us = nullptr) {
    const std::size_t need_inner = host_tree_.inner_pool().high_water();
    const std::size_t need_last = host_tree_.leaf_pool().high_water();
    // The last-level slot travels in the result word's node field. The
    // capacity stops at that field's range too, so a pool that grows past
    // it always comes back here (TrySyncISegment's `fits`) and fails.
    constexpr std::size_t kMaxLast = std::size_t{1} << kLeafNodeBits;
    const Status addressable = CheckResultWordField(
        need_last, kLeafNodeBits, "last-level inner nodes");
    if (!addressable.ok()) {
      mirror_valid_.store(false, std::memory_order_relaxed);
      return addressable;
    }
    if (need_inner > inner_capacity_ || need_last > last_capacity_) {
      FreeDeviceArrays();
      mirror_valid_.store(false, std::memory_order_relaxed);
      std::size_t cap_inner =
          static_cast<std::size_t>(need_inner * kDeviceHeadroom) + 64;
      std::size_t cap_last = std::min(
          static_cast<std::size_t>(need_last * kDeviceHeadroom) + 64,
          kMaxLast);
      device_inner_ = device_->TryMalloc(cap_inner * sizeof(Hot));
      device_last_ = device_->TryMalloc(cap_last * sizeof(LastHot));
      if (device_inner_.is_null() || device_last_.is_null()) {
        FreeDeviceArrays();
        return Status::DeviceOom(
            "I-segment mirror does not fit in device memory");
      }
      inner_capacity_ = cap_inner;
      last_capacity_ = cap_last;
    }
    // The bulk upload is one H2D transfer, for fault purposes too: an
    // injected fault leaves the (possibly freshly reallocated) arrays
    // without the new pool contents.
    HBTREE_RETURN_IF_ERROR(CheckUpload());
    const double t = CopyPools();
    if (us != nullptr) *us = t;
    // The full upload absorbs every host-side change, so the pools'
    // dirty lists restart empty.
    host_tree_.inner_pool().ClearDirty();
    host_tree_.leaf_pool().ClearDirty();
    mirror_valid_.store(true, std::memory_order_relaxed);
    return Status::Ok();
  }

  /// Uploads both pools' hot fragments, chunk by chunk, as one gathered
  /// transfer of i_segment_bytes(); returns its modelled time.
  double CopyPools() {
    std::vector<gpu::TransferEngine::Piece> pieces;
    AddChunks(host_tree_.inner_pool(), device_inner_, &pieces);
    AddChunks(host_tree_.leaf_pool(), device_last_, &pieces);
    return transfer_->CopyToDevice(pieces);
  }

  template <typename Pool>
  static void AddChunks(const Pool& pool, gpu::DevicePtr base,
                        std::vector<gpu::TransferEngine::Piece>* pieces) {
    const std::size_t chunk_slots = pool.chunk_capacity();
    std::size_t remaining = pool.high_water();
    for (std::size_t c = 0; c < pool.chunk_count() && remaining > 0; ++c) {
      const std::size_t here = std::min(chunk_slots, remaining);
      pieces->push_back({base + c * chunk_slots * pool.kPrimaryBytes,
                           pool.primary_chunk(c),
                           here * pool.kPrimaryBytes});
      remaining -= here;
    }
  }

  template <typename Pool>
  bool PoolMatches(const Pool& pool, gpu::DevicePtr base) const {
    for (typename Pool::Index slot = 0; slot < pool.high_water(); ++slot) {
      if (std::memcmp(device_->HostView(base + slot * pool.kPrimaryBytes,
                                        pool.kPrimaryBytes),
                      &pool.primary(slot), pool.kPrimaryBytes) != 0) {
        return false;
      }
    }
    return true;
  }

  Config config_;
  RegularBTree<K> host_tree_;
  gpu::Device* device_;
  gpu::TransferEngine* transfer_;
  gpu::DevicePtr device_inner_;
  gpu::DevicePtr device_last_;
  std::size_t inner_capacity_ = 0;
  std::size_t last_capacity_ = 0;
  std::atomic<bool> mirror_valid_{false};
  std::atomic<std::uint64_t> delta_syncs_{0};
  std::atomic<std::uint64_t> full_syncs_{0};
  std::atomic<std::uint64_t> delta_nodes_synced_{0};
};

}  // namespace hbtree

#endif  // HBTREE_HYBRID_HB_REGULAR_H_
