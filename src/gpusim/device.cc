#include "gpusim/device.h"

#include <cstring>

#include "core/macros.h"

namespace hbtree::gpu {

Device::Device(const sim::GpuSpec& spec)
    : spec_(spec),
      l2_(sim::CacheLevel::Config{"gpu-l2", spec.l2_bytes,
                                  spec.l2_associativity, 64}) {}

Device::~Device() {
  const std::uint32_t count = slot_count_.load(std::memory_order_acquire);
  for (std::uint32_t chunk_index = 0; chunk_index * kChunkSlots < count;
       ++chunk_index) {
    Allocation* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
      delete[] chunk[i].data.load(std::memory_order_acquire);
    }
    delete[] chunk;
  }
}

void Device::set_metrics_registry(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = DeviceMetrics{};
    return;
  }
  metrics_.bytes_h2d = &registry->counter("gpusim.bytes_h2d");
  metrics_.bytes_d2h = &registry->counter("gpusim.bytes_d2h");
  metrics_.transfers = &registry->counter("gpusim.transfers");
  metrics_.kernel_launches = &registry->counter("gpusim.kernel_launches");
  metrics_.occupancy = &registry->gauge("gpusim.occupancy");
  metrics_.used_bytes = &registry->gauge("gpusim.device_used_bytes");
  metrics_.used_bytes->Set(
      static_cast<double>(used_.load(std::memory_order_relaxed)));
}

bool Device::AccessL2(DevicePtr ptr) {
  // Segment id: allocation id in the high bits, 64-byte segment in the low
  // bits — distinct allocations can never alias.
  const std::uint64_t segment =
      (static_cast<std::uint64_t>(ptr.alloc_id) << 40) | (ptr.offset / 64);
  std::lock_guard<std::mutex> lock(l2_mutex_);
  return l2_.Access(segment);
}

DevicePtr Device::TryMalloc(std::size_t bytes, MemoryKind kind) {
  return Allocate(bytes, kind, /*consult_injector=*/true);
}

DevicePtr Device::TryMallocStaging(std::size_t bytes) {
  return Allocate(bytes, MemoryKind::kDevice, /*consult_injector=*/false);
}

DevicePtr Device::Allocate(std::size_t bytes, MemoryKind kind,
                           bool consult_injector) {
  if (bytes == 0) return DevicePtr{};
  const bool host_mapped = kind == MemoryKind::kHostMapped;
  std::lock_guard<std::mutex> lock(arena_mutex_);
  if (!host_mapped &&
      used_.load(std::memory_order_relaxed) + bytes > spec_.memory_bytes) {
    return DevicePtr{};
  }
  if (consult_injector && injector_ != nullptr &&
      injector_->ShouldFail(fault::Site::kDeviceAlloc)) {
    return DevicePtr{};
  }

  // Reuse a dead slot if available to keep ids bounded; otherwise claim
  // the next high-water slot, growing the chunk table as needed.
  std::uint32_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = slot_count_.load(std::memory_order_relaxed);
    HBTREE_CHECK_MSG(id < kMaxChunks * kChunkSlots,
                     "device allocation table exhausted (%u slots)", id);
    const std::uint32_t chunk_index = id >> kChunkShift;
    if (chunks_[chunk_index].load(std::memory_order_relaxed) == nullptr) {
      chunks_[chunk_index].store(new Allocation[kChunkSlots],
                                 std::memory_order_release);
    }
    slot_count_.store(id + 1, std::memory_order_release);
  }

  Allocation& slot =
      chunks_[id >> kChunkShift].load(std::memory_order_relaxed)
          [id & (kChunkSlots - 1)];
  slot.size.store(bytes, std::memory_order_relaxed);
  slot.host_mapped.store(host_mapped, std::memory_order_relaxed);
  // Publication point: readers acquire on `data` and then see `size`.
  slot.data.store(new std::byte[bytes], std::memory_order_release);
  if (host_mapped) return DevicePtr{id, 0};
  used_.fetch_add(bytes, std::memory_order_relaxed);
  if (metrics_.used_bytes != nullptr) {
    metrics_.used_bytes->Set(
        static_cast<double>(used_.load(std::memory_order_relaxed)));
  }
  return DevicePtr{id, 0};
}

DevicePtr Device::Malloc(std::size_t bytes) {
  DevicePtr ptr = TryMalloc(bytes);
  HBTREE_CHECK_MSG(!ptr.is_null(),
                   "device out of memory: requested %zu, used %zu of %zu",
                   bytes, used_.load(std::memory_order_relaxed),
                   static_cast<std::size_t>(spec_.memory_bytes));
  return ptr;
}

void Device::Free(DevicePtr ptr) {
  if (ptr.is_null()) return;
  std::lock_guard<std::mutex> lock(arena_mutex_);
  Allocation& slot = SlotRef(ptr);
  std::byte* data = slot.data.load(std::memory_order_relaxed);
  HBTREE_CHECK(data != nullptr);
  HBTREE_CHECK_MSG(ptr.offset == 0, "Free requires the allocation base");
  const std::size_t bytes = slot.size.load(std::memory_order_relaxed);
  slot.data.store(nullptr, std::memory_order_release);
  slot.size.store(0, std::memory_order_relaxed);
  delete[] data;
  free_slots_.push_back(ptr.alloc_id);
  if (slot.host_mapped.load(std::memory_order_relaxed)) return;
  used_.fetch_sub(bytes, std::memory_order_relaxed);
  if (metrics_.used_bytes != nullptr) {
    metrics_.used_bytes->Set(
        static_cast<double>(used_.load(std::memory_order_relaxed)));
  }
}

Device::Allocation& Device::SlotRef(DevicePtr ptr) const {
  HBTREE_CHECK(!ptr.is_null());
  HBTREE_CHECK(ptr.alloc_id < slot_count_.load(std::memory_order_acquire));
  Allocation* chunk =
      chunks_[ptr.alloc_id >> kChunkShift].load(std::memory_order_acquire);
  HBTREE_CHECK(chunk != nullptr);
  return chunk[ptr.alloc_id & (kChunkSlots - 1)];
}

Device::View Device::Resolve(DevicePtr ptr, std::size_t bytes) const {
  Allocation& slot = SlotRef(ptr);
  std::byte* data = slot.data.load(std::memory_order_acquire);
  HBTREE_CHECK(data != nullptr);
  const std::size_t size = slot.size.load(std::memory_order_relaxed);
  HBTREE_CHECK(ptr.offset <= size && bytes <= size - ptr.offset);
  return View{data + ptr.offset,
              slot.host_mapped.load(std::memory_order_relaxed)};
}

std::byte* Device::HostView(DevicePtr ptr, std::size_t bytes) {
  return Resolve(ptr, bytes).data;
}

const std::byte* Device::HostView(DevicePtr ptr, std::size_t bytes) const {
  return Resolve(ptr, bytes).data;
}

bool Device::IsHostMapped(DevicePtr ptr) const {
  return SlotRef(ptr).host_mapped.load(std::memory_order_relaxed);
}

void Device::RecordMappedStore(std::uint64_t bytes) {
  mapped_store_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (metrics_.bytes_d2h != nullptr) metrics_.bytes_d2h->Add(bytes);
}

TransferEngine::TransferEngine(Device* device, const sim::PcieSpec& pcie)
    : device_(device), pcie_(pcie) {
  HBTREE_CHECK(device != nullptr);
}

void TransferEngine::CountTransfer(std::size_t bytes) {
  bytes_h2d_.fetch_add(bytes, std::memory_order_relaxed);
  transfers_.fetch_add(1, std::memory_order_relaxed);
  if (const Device::DeviceMetrics* m = device_->metrics()) {
    m->bytes_h2d->Add(bytes);
    m->transfers->Increment();
  }
}

double TransferEngine::CopyToDevice(DevicePtr dst, const void* src,
                                    std::size_t bytes) {
  std::memcpy(device_->HostView(dst, bytes), src, bytes);
  CountTransfer(bytes);
  return HostToDeviceUs(bytes);
}

double TransferEngine::CopyToDevice(std::span<const Piece> pieces) {
  std::size_t bytes = 0;
  for (const Piece& piece : pieces) {
    std::memcpy(device_->HostView(piece.dst, piece.bytes), piece.src,
                piece.bytes);
    bytes += piece.bytes;
  }
  CountTransfer(bytes);
  return HostToDeviceUs(bytes);
}

Status TransferEngine::TryCopyToDevice(DevicePtr dst, const void* src,
                                       std::size_t bytes, double* us) {
  fault::FaultInjector* injector = device_->fault_injector();
  if (injector != nullptr) {
    HBTREE_RETURN_IF_ERROR(injector->Check(fault::Site::kTransferH2D));
  }
  const double t = CopyToDevice(dst, src, bytes);
  if (us != nullptr) *us = t;
  return Status::Ok();
}

double TransferEngine::StreamedCopyToDevice(DevicePtr dst, const void* src,
                                            std::size_t bytes) {
  std::memcpy(device_->HostView(dst, bytes), src, bytes);
  CountTransfer(bytes);
  return StreamedHostToDeviceUs(bytes);
}

double TransferEngine::StreamedHostToDeviceUs(std::size_t bytes) const {
  return pcie_.streamed_init_us +
         static_cast<double>(bytes) / (pcie_.bandwidth_h2d_gbps * 1e3);
}

double TransferEngine::HostToDeviceUs(std::size_t bytes) const {
  return pcie_.transfer_init_us +
         static_cast<double>(bytes) / (pcie_.bandwidth_h2d_gbps * 1e3);
}

}  // namespace hbtree::gpu
