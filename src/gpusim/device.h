#ifndef HBTREE_GPUSIM_DEVICE_H_
#define HBTREE_GPUSIM_DEVICE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/status.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "sim/cache_sim.h"
#include "sim/platform.h"

namespace hbtree::gpu {

/// Handle to simulated device memory. Like a CUDA device pointer it is not
/// host-dereferenceable; kernels and transfer functions resolve it through
/// the owning Device. Offset arithmetic is supported so that array
/// indexing inside kernels mirrors real device code.
struct DevicePtr {
  static constexpr std::uint32_t kNullAlloc = 0xffffffffu;

  std::uint32_t alloc_id = kNullAlloc;
  std::uint64_t offset = 0;

  bool is_null() const { return alloc_id == kNullAlloc; }

  DevicePtr operator+(std::uint64_t bytes) const {
    return DevicePtr{alloc_id, offset + bytes};
  }
};

/// Where an allocation lives. Device memory is the GPU's own capacity-
/// limited GDDR. Host-mapped memory is pinned host memory mapped into the
/// device's address space (CUDA's zero-copy memory): a kernel's stores to
/// it stream over PCIe as the kernel runs, and the host reads it in place,
/// so no copy is ever submitted for it.
enum class MemoryKind { kDevice, kHostMapped };

/// A simulated discrete GPU: a capacity-limited device memory plus the
/// spec numbers the kernel cost model consumes.
///
/// The capacity limit is not a nicety — it is the core constraint the
/// paper's hybrid design exists to escape ("GPU performance is bounded by
/// memory capacity", Section 1). Allocation fails exactly as cudaMalloc
/// would when the I-segment (or a whole tree, for the pure-GPU strawman)
/// does not fit into the 3 GB of a GTX 780.
///
/// Thread safety: one device is shared by every read worker dispatching
/// against a pinned snapshot slot, so the arena is concurrent-safe.
/// - TryMalloc/Free/Malloc mutate slot bookkeeping under `arena_mutex_`.
/// - HostView is lock-free: allocation slots live in chunked stable
///   storage and publish their backing buffer with a release store, so
///   readers need only an acquire load. The caller
///   contract matches real CUDA: accessing an allocation concurrently
///   with its Free is undefined (the serving layer guarantees this
///   structurally — snapshot drain before mutation, and an exclusive
///   probe lock around mirror resyncs).
/// - AccessL2 serializes on `l2_mutex_`: the L2 is one physical resource,
///   so concurrent kernel streams interleave their segment accesses in
///   arrival order (see DESIGN.md §9 for the modelled-time semantics).
/// - set_fault_injector/set_metrics_registry are setup-time calls and
///   must not race device traffic.
class Device {
 public:
  explicit Device(const sim::GpuSpec& spec);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Allocates device memory; returns a null pointer if `bytes` does not
  /// fit into the remaining capacity (the CUDA out-of-memory analogue) or
  /// if the armed fault injector fails the allocation. A host-mapped
  /// allocation lives in host memory: it does not count toward
  /// used_bytes() and fails only on an injected allocation fault.
  DevicePtr TryMalloc(std::size_t bytes,
                      MemoryKind kind = MemoryKind::kDevice);
  /// Allocates device memory; aborts on out-of-memory. Reserved for call
  /// sites that sized the allocation beforehand and genuinely cannot
  /// recover — recoverable paths use TryMalloc and propagate a Status.
  DevicePtr Malloc(std::size_t bytes);
  /// Device memory for one staged upload (a packed buffer that a kernel
  /// unpacks on the device). The upload is the operation that can fault,
  /// at its own kTransferH2D check, so this allocation consults no
  /// injector: it fails only when `bytes` does not fit.
  DevicePtr TryMallocStaging(std::size_t bytes);
  void Free(DevicePtr ptr);

  /// Arms (or disarms, with nullptr) a fault source consulted by
  /// TryMalloc and by the transfer/kernel layers via fault_injector().
  /// The injector must outlive the device; ownership stays with the
  /// caller (the serving layer owns one per snapshot slot).
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return injector_; }

  /// Cached metric handles for the device layers. Looked up once when a
  /// registry is attached so the per-transfer/per-launch hot paths pay a
  /// null check plus a relaxed fetch_add, never a name lookup.
  struct DeviceMetrics {
    obs::Counter* bytes_h2d = nullptr;
    obs::Counter* bytes_d2h = nullptr;
    obs::Counter* transfers = nullptr;
    obs::Counter* kernel_launches = nullptr;
    obs::Gauge* occupancy = nullptr;
    obs::Gauge* used_bytes = nullptr;
  };

  /// Attaches (or with nullptr detaches) a metrics registry; the device
  /// and its transfer engine then publish `gpusim.*` counters/gauges into
  /// it. The registry must outlive the device; multiple devices may share
  /// one registry (counters aggregate across them).
  void set_metrics_registry(obs::MetricsRegistry* registry);
  /// Non-null once a registry is attached.
  const DeviceMetrics* metrics() const {
    return metrics_.transfers != nullptr ? &metrics_ : nullptr;
  }

  /// Host-visible backing storage of an allocation (+offset). Used by the
  /// functional kernel executor and the transfer engine — the moral
  /// equivalent of the GDDR behind a device pointer. Checks that the
  /// `bytes` bytes from `ptr` lie inside the allocation. Lock-free.
  std::byte* HostView(DevicePtr ptr, std::size_t bytes = 0);
  const std::byte* HostView(DevicePtr ptr, std::size_t bytes = 0) const;

  /// What a warp-wide access needs of its allocation, resolved once:
  /// HostView(ptr, bytes) and whether the allocation is host-mapped.
  struct View {
    std::byte* data;
    bool host_mapped;
  };
  View Resolve(DevicePtr ptr, std::size_t bytes) const;

  template <typename T>
  T* HostViewAs(DevicePtr ptr) {
    return reinterpret_cast<T*>(HostView(ptr));
  }
  template <typename T>
  const T* HostViewAs(DevicePtr ptr) const {
    return reinterpret_cast<const T*>(HostView(ptr));
  }

  /// True when `ptr` points into a host-mapped allocation. Lock-free.
  bool IsHostMapped(DevicePtr ptr) const;

  /// Accounts `bytes` of kernel stores into host-mapped memory: they
  /// cross the link device -> host (WarpScope::RecordAccess calls this).
  void RecordMappedStore(std::uint64_t bytes);
  /// Total bytes kernels stored into this device's host-mapped memory.
  std::uint64_t mapped_store_bytes() const {
    return mapped_store_bytes_.load(std::memory_order_relaxed);
  }

  std::size_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }
  std::size_t capacity_bytes() const { return spec_.memory_bytes; }
  const sim::GpuSpec& spec() const { return spec_; }

  /// Simulates one 64-byte-segment access through the device L2; returns
  /// true on hit (the segment does not consume DRAM bandwidth). Keyed by
  /// (allocation, segment) so distinct allocations never alias. The L2 is
  /// one physical resource: concurrent streams serialize on an internal
  /// mutex and interleave in arrival order.
  bool AccessL2(DevicePtr ptr);
  /// Direct L2 access for single-threaded inspection (tests, reports);
  /// not synchronized against concurrent AccessL2 traffic.
  sim::CacheLevel& l2() { return l2_; }

 private:
  /// One allocation slot. Slots live in chunked stable storage so a
  /// reader holding an id can resolve it without a lock while other
  /// threads allocate (which may add chunks but never moves a slot).
  /// `data` doubles as the liveness flag (null == dead) and is the
  /// release/acquire publication point for `size` and the buffer
  /// contents written before publication.
  struct Allocation {
    std::atomic<std::byte*> data{nullptr};
    std::atomic<std::size_t> size{0};
    std::atomic<bool> host_mapped{false};
  };

  static constexpr std::uint32_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kMaxChunks = 4096;

  DevicePtr Allocate(std::size_t bytes, MemoryKind kind,
                     bool consult_injector);

  /// Bounds-checks `ptr` and returns its slot. Lock-free; the slot may be
  /// dead (data == null) — callers needing liveness check `data`.
  Allocation& SlotRef(DevicePtr ptr) const;

  sim::GpuSpec spec_;

  /// Guards slot bookkeeping (free list, high-water mark, chunk growth).
  mutable std::mutex arena_mutex_;
  std::array<std::atomic<Allocation*>, kMaxChunks> chunks_{};
  std::atomic<std::uint32_t> slot_count_{0};   // high-water mark
  std::vector<std::uint32_t> free_slots_;      // dead ids for reuse
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> mapped_store_bytes_{0};

  /// The L2 model mutates LRU state on every access; one mutex makes the
  /// shared cache safe for concurrent kernel streams.
  mutable std::mutex l2_mutex_;
  sim::CacheLevel l2_;

  fault::FaultInjector* injector_ = nullptr;
  DeviceMetrics metrics_;
};

/// RAII device allocation: TryMalloc on construction (null on OOM or
/// injected allocation fault — check ok()), Free on destruction, so
/// error paths that return early cannot leak device memory.
class ScopedDeviceAlloc {
 public:
  ScopedDeviceAlloc(Device* device, std::size_t bytes,
                    MemoryKind kind = MemoryKind::kDevice)
      : device_(device),
        ptr_(bytes > 0 ? device->TryMalloc(bytes, kind) : DevicePtr{}) {}
  ~ScopedDeviceAlloc() {
    if (!ptr_.is_null()) device_->Free(ptr_);
  }
  ScopedDeviceAlloc(const ScopedDeviceAlloc&) = delete;
  ScopedDeviceAlloc& operator=(const ScopedDeviceAlloc&) = delete;

  bool ok() const { return !ptr_.is_null(); }
  DevicePtr get() const { return ptr_; }

 private:
  Device* device_;
  DevicePtr ptr_;
};

/// Host -> device transfer engine. Copies are functional (the data really
/// moves, so results are verifiable); the returned times follow the
/// paper's own transfer model T = T_init + bytes / Bandwidth (Section 5.4).
/// Nothing is ever copied device -> host: kernels store their results
/// into host-mapped memory (MemoryKind::kHostMapped), and the host reads
/// a device buffer in place through Device::HostView.
///
/// Thread-safe: copies into distinct allocations proceed concurrently
/// (memcpy into disjoint buffers); the byte/transfer counters are relaxed
/// atomics.
class TransferEngine {
 public:
  TransferEngine(Device* device, const sim::PcieSpec& pcie);

  /// Copies host → device; returns the modelled transfer time in µs.
  double CopyToDevice(DevicePtr dst, const void* src, std::size_t bytes);

  /// One host span of a gathered copy and its device destination.
  struct Piece {
    DevicePtr dst;
    const void* src;
    std::size_t bytes;
  };
  /// Copies every piece host → device as ONE transfer of their total
  /// bytes (a gather list: a chunked host array into flat device arrays);
  /// returns its modelled time in µs.
  double CopyToDevice(std::span<const Piece> pieces);

  /// Fault-aware copy: consults the device's armed injector before
  /// moving data. On an injected fault nothing is copied and a typed
  /// transient Status is returned; on success `*us` (optional) receives
  /// the modelled transfer time. With no injector armed this is
  /// identical to CopyToDevice.
  Status TryCopyToDevice(DevicePtr dst, const void* src, std::size_t bytes,
                         double* us = nullptr);

  double HostToDeviceUs(std::size_t bytes) const;
  const sim::PcieSpec& pcie() const { return pcie_; }
  /// Modelled cost of one streamed (queued) H2D transfer of `bytes`,
  /// without performing it — planning input for the delta-vs-full
  /// I-segment sync decision.
  double StreamedHostToDeviceUs(std::size_t bytes) const;

  /// Copies host -> device as one of many small queued transfers (the
  /// synchronized update method's unit); charged the amortized streamed
  /// initialization cost instead of a full submission latency.
  double StreamedCopyToDevice(DevicePtr dst, const void* src,
                              std::size_t bytes);

  std::uint64_t bytes_h2d() const {
    return bytes_h2d_.load(std::memory_order_relaxed);
  }
  /// Bytes the link carried device -> host: every kernel store into the
  /// device's host-mapped memory (each owner here pairs one engine with
  /// one device).
  std::uint64_t bytes_d2h() const { return device_->mapped_store_bytes(); }
  std::uint64_t transfers() const {
    return transfers_.load(std::memory_order_relaxed);
  }

 private:
  /// Counts one host → device transfer of `bytes`.
  void CountTransfer(std::size_t bytes);

  Device* device_;
  sim::PcieSpec pcie_;
  std::atomic<std::uint64_t> bytes_h2d_{0};
  std::atomic<std::uint64_t> transfers_{0};
};

}  // namespace hbtree::gpu

#endif  // HBTREE_GPUSIM_DEVICE_H_
