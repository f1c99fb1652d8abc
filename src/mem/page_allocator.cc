#include "mem/page_allocator.h"

#include <algorithm>
#include <cstdlib>

#include "core/macros.h"
#include "core/types.h"

namespace hbtree {

const char* PageSizeName(PageSize s) {
  switch (s) {
    case PageSize::k4K:
      return "4K";
    case PageSize::k2M:
      return "2M";
    case PageSize::k1G:
      return "1G";
  }
  return "unknown";
}

void PageRegistry::Register(const void* base, std::size_t size,
                            PageSize page_size) {
  Region region{reinterpret_cast<std::uintptr_t>(base),
                reinterpret_cast<std::uintptr_t>(base) + size, page_size,
                next_page_base_};
  const std::uint64_t bytes = PageBytes(page_size);
  next_page_base_ += (size + bytes - 1) / bytes + (size == 0 ? 1 : 0);
  auto it = std::lower_bound(
      regions_.begin(), regions_.end(), region,
      [](const Region& a, const Region& b) { return a.base < b.base; });
  // Overlapping registrations indicate allocator misuse.
  if (it != regions_.end()) HBTREE_CHECK(region.end <= it->base);
  if (it != regions_.begin()) HBTREE_CHECK(std::prev(it)->end <= region.base);
  regions_.insert(it, region);
}

void PageRegistry::Unregister(const void* base) {
  auto addr = reinterpret_cast<std::uintptr_t>(base);
  auto it = std::find_if(regions_.begin(), regions_.end(),
                         [addr](const Region& r) { return r.base == addr; });
  if (it != regions_.end()) regions_.erase(it);
}

PageSize PageRegistry::Lookup(const void* addr) const {
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), a,
      [](std::uintptr_t x, const Region& r) { return x < r.base; });
  if (it == regions_.begin()) return PageSize::k4K;
  --it;
  if (a < it->end) return it->page_size;
  return PageSize::k4K;
}

PageRegistry::Translation PageRegistry::Translate(const void* addr) const {
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), a,
      [](std::uintptr_t x, const Region& r) { return x < r.base; });
  if (it != regions_.begin()) {
    const Region& r = *std::prev(it);
    if (a < r.end) {
      return {r.page_size,
              r.page_base + static_cast<std::uint64_t>(a - r.base) /
                                PageBytes(r.page_size)};
    }
  }
  return {PageSize::k4K,
          static_cast<std::uint64_t>(a) / PageBytes(PageSize::k4K)};
}

std::uint64_t PageRegistry::PageNumber(const void* addr) const {
  return Translate(addr).page;
}

PagedBuffer::PagedBuffer(std::size_t size, PageSize page_size,
                         PageRegistry* registry) {
  Reset(size, page_size, registry);
}

PagedBuffer::~PagedBuffer() { Release(); }

PagedBuffer::PagedBuffer(PagedBuffer&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      page_size_(other.page_size_),
      registry_(other.registry_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.registry_ = nullptr;
}

PagedBuffer& PagedBuffer::operator=(PagedBuffer&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    size_ = other.size_;
    page_size_ = other.page_size_;
    registry_ = other.registry_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.registry_ = nullptr;
  }
  return *this;
}

void PagedBuffer::Reset(std::size_t size, PageSize page_size,
                        PageRegistry* registry) {
  Release();
  size_ = size;
  page_size_ = page_size;
  registry_ = registry;
  if (size == 0) return;
  // Align to 2 MB whatever the page size. The *tag*, not the host
  // alignment, drives TLB behaviour, but the cache simulator indexes its
  // sets by raw address bits (up to bit 19 for M1's L3): a buffer aligned
  // to less would let ASLR move its set mapping, and with it the modelled
  // rates, from run to run. 2 MB also caps the real alignment of simulated
  // 1 GB pages, which would waste host memory.
  constexpr std::size_t alignment = 2ull * 1024 * 1024;
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  data_ = static_cast<std::byte*>(std::aligned_alloc(alignment, rounded));
  HBTREE_CHECK_MSG(data_ != nullptr, "allocation of %zu bytes failed", size);
  if (registry_ != nullptr) registry_->Register(data_, rounded, page_size_);
}

void PagedBuffer::Release() {
  if (data_ != nullptr) {
    if (registry_ != nullptr) registry_->Unregister(data_);
    std::free(data_);
    data_ = nullptr;
  }
  size_ = 0;
}

}  // namespace hbtree
