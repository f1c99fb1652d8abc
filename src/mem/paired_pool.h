#ifndef HBTREE_MEM_PAIRED_POOL_H_
#define HBTREE_MEM_PAIRED_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <type_traits>
#include <vector>

#include "core/macros.h"
#include "mem/page_allocator.h"

namespace hbtree {

/// Paired-fragment pool, implementing the two allocation tricks of
/// Section 4.1:
///
///  * *Inner node fragmentation* — each regular inner node is split into a
///    hot fragment (indexes, keys, child references) and a cold fragment
///    (node size, parent, sibling references). Both fragments are allocated
///    from two separate chunked arrays "in such a way that both fragments
///    share the same index".
///  * *Big-leaf pairing* — each last-level inner node is paired with
///    exactly one 256-entry big leaf; allocating them from two pools under
///    one shared index lets the lookup jump straight from the inner-node
///    search result to the right leaf cache line, so the last-level hot
///    fragment needs no child references.
///
/// Slots are stable (chunked storage never moves) and reusable via a free
/// list. Both element types must be trivially copyable PODs, which all
/// node layouts are.
template <typename Primary, typename Secondary>
class PairedPool {
  static_assert(std::is_trivially_copyable_v<Primary>);
  static_assert(std::is_trivially_copyable_v<Secondary>);

 public:
  using Index = std::uint32_t;
  static constexpr Index kInvalidIndex = 0xffffffffu;
  /// Bytes of one primary fragment: the slot stride of primary_chunk()
  /// and of a device mirror of the primary fragments.
  static constexpr std::size_t kPrimaryBytes = sizeof(Primary);

  /// `chunk_capacity` — slots per chunk; the page sizes tag the two
  /// fragment arrays for the TLB simulator (`registry` may be null to
  /// skip tagging). Separate tags matter: in the regular HB+-tree the hot
  /// fragments are I-segment (always huge pages) while big leaves are
  /// L-segment (configuration-dependent), Section 4.1/5.2. Each array
  /// numbers its pages as one span that it keeps across Clear(), so its
  /// chunks share their pages as if carved from one huge-page arena:
  /// chunk i starts i chunks' bytes into the span.
  PairedPool(std::size_t chunk_capacity, PageSize primary_page,
             PageSize secondary_page, PageRegistry* registry)
      : chunk_capacity_(chunk_capacity),
        primary_page_(primary_page),
        secondary_page_(secondary_page),
        registry_(registry),
        primary_span_(registry != nullptr ? registry->ReserveSpan() : 0),
        secondary_span_(registry != nullptr ? registry->ReserveSpan() : 0) {
    HBTREE_CHECK(chunk_capacity > 0);
  }

  PairedPool(std::size_t chunk_capacity, PageSize page_size,
             PageRegistry* registry)
      : PairedPool(chunk_capacity, page_size, page_size, registry) {}

  /// Releases every slot and chunk (used by bulk rebuild).
  void Clear() {
    primary_chunks_.clear();
    secondary_chunks_.clear();
    chunk_touches_.clear();
    free_list_.clear();
    next_slot_ = 0;
    live_ = 0;
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_flags_.clear();
    dirty_slots_.clear();
  }

  /// Allocates one paired slot. Contents are unspecified; callers
  /// initialize both fragments.
  Index Allocate() {
    if (!free_list_.empty()) {
      Index idx = free_list_.back();
      free_list_.pop_back();
      ++live_;
      return idx;
    }
    if (next_slot_ == primary_chunks_.size() * chunk_capacity_) AddChunk();
    ++live_;
    return static_cast<Index>(next_slot_++);
  }

  void Free(Index idx) {
    HBTREE_DCHECK(idx < next_slot_);
    free_list_.push_back(idx);
    HBTREE_DCHECK(live_ > 0);
    --live_;
  }

  Primary& primary(Index idx) {
    HBTREE_DCHECK(idx < next_slot_);
    return primary_chunks_[idx / chunk_capacity_].template as<Primary>()
        [idx % chunk_capacity_];
  }
  const Primary& primary(Index idx) const {
    return const_cast<PairedPool*>(this)->primary(idx);
  }

  Secondary& secondary(Index idx) {
    HBTREE_DCHECK(idx < next_slot_);
    return secondary_chunks_[idx / chunk_capacity_].template as<Secondary>()
        [idx % chunk_capacity_];
  }
  const Secondary& secondary(Index idx) const {
    return const_cast<PairedPool*>(this)->secondary(idx);
  }

  /// Number of live (allocated, not freed) slots.
  std::size_t live() const { return live_; }
  /// Total slots ever handed out (high-water mark).
  std::size_t high_water() const { return next_slot_; }
  std::size_t capacity() const {
    return primary_chunks_.size() * chunk_capacity_;
  }

  /// Bytes of secondary-fragment storage, for memory-footprint reporting.
  std::size_t secondary_bytes() const {
    return secondary_chunks_.size() * chunk_capacity_ * sizeof(Secondary);
  }

  /// Chunk-wise access to the primary fragments, used to mirror the
  /// I-segment into device memory without per-slot copies.
  std::size_t chunk_count() const { return primary_chunks_.size(); }
  std::size_t chunk_capacity() const { return chunk_capacity_; }
  const Primary* primary_chunk(std::size_t i) const {
    return primary_chunks_[i].template as<Primary>();
  }

  /// Records one traversal touching `idx`'s chunk, feeding the
  /// segment-temperature classifier (DESIGN.md Section 13). Concurrent
  /// with reads; a relaxed counter is enough — temperature is sampled
  /// once per observation, not per-access.
  void NoteTouch(Index idx) const {
    HBTREE_DCHECK(idx / chunk_capacity_ < chunk_touches_.size());
    chunk_touches_[idx / chunk_capacity_].fetch_add(
        1, std::memory_order_relaxed);
  }
  /// Cumulative touches recorded against chunk `i` (a memory segment).
  std::uint64_t chunk_touches(std::size_t i) const {
    return chunk_touches_[i].load(std::memory_order_relaxed);
  }

  // -- Dirty tracking (delta synchronization, Section 5.6) ------------------
  //
  // Update paths mark the primary fragments they rewrote; a delta sync
  // streams only those slots to the device mirror instead of re-uploading
  // the whole segment. Marks deduplicate, so the list is bounded by the
  // slot count. MarkDirty is safe to call concurrently (the parallel
  // batch updater holds per-node locks, not a pool-wide one);
  // dirty_slots()/ClearDirty() expect the quiesced single-threaded sync
  // phase.

  void MarkDirty(Index idx) {
    HBTREE_DCHECK(idx < next_slot_);
    std::lock_guard<std::mutex> lock(dirty_mu_);
    if (idx >= dirty_flags_.size()) dirty_flags_.resize(capacity(), 0);
    if (!dirty_flags_[idx]) {
      dirty_flags_[idx] = 1;
      dirty_slots_.push_back(idx);
    }
  }

  std::size_t dirty_count() const {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    return dirty_slots_.size();
  }

  /// Slots marked since the last ClearDirty, in mark order (callers sort).
  std::vector<Index> dirty_slots() const {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    return dirty_slots_;
  }

  /// Drops all marks — call only after the device mirror has absorbed
  /// every dirty slot (a failed sync must keep its marks so the retry
  /// still knows what diverged).
  void ClearDirty() {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    for (Index idx : dirty_slots_) dirty_flags_[idx] = 0;
    dirty_slots_.clear();
  }

 private:
  void AddChunk() {
    const std::size_t chunk = primary_chunks_.size();
    const std::size_t primary_bytes = chunk_capacity_ * sizeof(Primary);
    const std::size_t secondary_bytes = chunk_capacity_ * sizeof(Secondary);
    primary_chunks_.emplace_back(
        primary_bytes, primary_page_, registry_,
        PageRegistry::Placement{primary_span_, chunk * primary_bytes});
    secondary_chunks_.emplace_back(
        secondary_bytes, secondary_page_, registry_,
        PageRegistry::Placement{secondary_span_, chunk * secondary_bytes});
    chunk_touches_.emplace_back(0);
  }

  std::size_t chunk_capacity_;
  PageSize primary_page_;
  PageSize secondary_page_;
  PageRegistry* registry_;
  // First synthetic page of each fragment array's span (ReserveSpan).
  std::uint64_t primary_span_;
  std::uint64_t secondary_span_;
  std::vector<PagedBuffer> primary_chunks_;
  std::vector<PagedBuffer> secondary_chunks_;
  // One touch counter per chunk; deque keeps the atomics at stable
  // addresses while AddChunk grows the pool.
  mutable std::deque<std::atomic<std::uint64_t>> chunk_touches_;
  std::vector<Index> free_list_;
  std::size_t next_slot_ = 0;
  std::size_t live_ = 0;
  // Dirty-slot set for delta sync: dedup flags plus insertion-order list.
  mutable std::mutex dirty_mu_;
  std::vector<std::uint8_t> dirty_flags_;
  std::vector<Index> dirty_slots_;
};

}  // namespace hbtree

#endif  // HBTREE_MEM_PAIRED_POOL_H_
