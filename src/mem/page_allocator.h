#ifndef HBTREE_MEM_PAGE_ALLOCATOR_H_
#define HBTREE_MEM_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace hbtree {

/// Page sizes supported by the memory-page configuration experiment
/// (Section 6.2, Figure 7). On the paper's hardware these are real x86
/// page sizes; here they are *tags* consumed by the TLB simulator — the
/// paper uses huge pages purely for their TLB behaviour, which the
/// simulator reproduces (see DESIGN.md, substitutions).
enum class PageSize : std::uint64_t {
  k4K = 4ull * 1024,
  k2M = 2ull * 1024 * 1024,
  k1G = 1024ull * 1024 * 1024,
};

const char* PageSizeName(PageSize s);

inline std::uint64_t PageBytes(PageSize s) {
  return static_cast<std::uint64_t>(s);
}

/// Tracks which page size backs each allocated region, the moral
/// equivalent of the paper's custom allocator that "allows determining
/// whether a node resides on a huge page or not" (Section 4.1).
///
/// Thread-compatible: registration happens at build time, lookups during
/// (single-threaded) trace simulation.
class PageRegistry {
 public:
  /// Host alignment of every PagedBuffer, and the unit in which regions
  /// advance the synthetic page numbering.
  static constexpr std::size_t kRegionAlignment = 2ull * 1024 * 1024;

  /// Where a region's first byte sits in the synthetic page numbering:
  /// `offset` bytes past the start of page `page_base`. A standalone
  /// region starts a page range of its own (offset 0); a chunk of a span
  /// (ReserveSpan) sits at its byte offset in that span.
  struct Placement {
    std::uint64_t page_base;
    std::uint64_t offset;
  };

  struct Region {
    std::uintptr_t base;
    std::uintptr_t end;  // one past the last byte
    PageSize page_size;
    Placement at;
  };

  /// `addr` resolved to the backing page size plus the simulated page
  /// number. Two addresses with equal page numbers *and* page sizes share
  /// a TLB entry.
  struct Translation {
    PageSize page_size;
    std::uint64_t page;
  };

  /// Reserves a span of synthetic pages for one chunked array and returns
  /// its first page number. Registering each chunk at {span, byte offset
  /// of the chunk in the array} numbers the chunks as consecutive bytes
  /// of one page run, the way a huge-page arena carves its chunks out of
  /// one 1 GB page, although every chunk is a separate host allocation.
  std::uint64_t ReserveSpan();

  /// Registers [base, base + size). Without `at`, the region gets its own
  /// synthetic page range.
  void Register(const void* base, std::size_t size, PageSize page_size,
                std::optional<Placement> at = std::nullopt);
  void Unregister(const void* base);

  /// Addresses outside any registered region are treated as regular
  /// 4K-paged memory (matching default OS behaviour) and numbered by their
  /// raw address.
  Translation Translate(const void* addr) const;

  const std::vector<Region>& regions() const { return regions_; }

 private:
  // Registered regions model memory the OS backed with (aligned) pages of
  // the requested size, but the bytes actually come from the heap, which
  // aligns to nothing larger than a cache line. Numbering pages by raw
  // virtual address would therefore let a region straddle a simulated
  // page boundary — a 64 MB buffer "occupying" two 1 GB pages — purely
  // depending on where malloc happened to place it, which varies run to
  // run under ASLR. Instead each region is assigned a synthetic page
  // range at registration, as if the allocator had returned page-aligned
  // memory, starting far above any raw-address 4K page number so the two
  // namespaces cannot collide.
  static constexpr std::uint64_t kSyntheticPageBase = 1ull << 50;
  // Spans are numbered in a namespace of their own, far above the
  // standalone regions, so reserving one never shifts a standalone
  // region's pages. Each span owns 2^32 page numbers: 16 TiB of 4K pages.
  static constexpr std::uint64_t kSpanPageBase = 1ull << 56;
  static constexpr std::uint64_t kSpanPages = 1ull << 32;

  std::vector<Region> regions_;  // sorted by base
  std::uint64_t next_page_base_ = kSyntheticPageBase;
  std::uint64_t next_span_base_ = kSpanPageBase;
};

/// A contiguous, cache-line-aligned allocation tagged with a page size.
/// The I-segment and L-segment of every tree in this repository live in
/// PagedBuffers so the TLB simulator can cost their accesses correctly.
class PagedBuffer {
 public:
  PagedBuffer() = default;
  /// `at` places the buffer in a span reserved with
  /// PageRegistry::ReserveSpan; see PageRegistry::Register.
  PagedBuffer(std::size_t size, PageSize page_size, PageRegistry* registry,
              std::optional<PageRegistry::Placement> at = std::nullopt);
  ~PagedBuffer();

  PagedBuffer(PagedBuffer&& other) noexcept;
  PagedBuffer& operator=(PagedBuffer&& other) noexcept;
  PagedBuffer(const PagedBuffer&) = delete;
  PagedBuffer& operator=(const PagedBuffer&) = delete;

  /// Re-allocates to `size` bytes (content is NOT preserved).
  void Reset(std::size_t size, PageSize page_size, PageRegistry* registry,
             std::optional<PageRegistry::Placement> at = std::nullopt);

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  PageSize page_size() const { return page_size_; }
  bool empty() const { return size_ == 0; }

  template <typename T>
  T* as() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* as() const {
    return reinterpret_cast<const T*>(data_);
  }

 private:
  void Release();

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  PageSize page_size_ = PageSize::k4K;
  PageRegistry* registry_ = nullptr;
};

}  // namespace hbtree

#endif  // HBTREE_MEM_PAGE_ALLOCATOR_H_
