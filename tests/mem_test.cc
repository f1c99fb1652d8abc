#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "mem/page_allocator.h"
#include "mem/paired_pool.h"

namespace hbtree {
namespace {

TEST(PageRegistry, TranslateFindsRegisteredRegions) {
  PageRegistry registry;
  PagedBuffer huge(1 << 16, PageSize::k1G, &registry);
  PagedBuffer small(1 << 12, PageSize::k4K, &registry);
  EXPECT_EQ(registry.Translate(huge.data()).page_size, PageSize::k1G);
  EXPECT_EQ(registry.Translate(huge.data() + huge.size() - 1).page_size,
            PageSize::k1G);
  EXPECT_EQ(registry.Translate(small.data()).page_size, PageSize::k4K);
  int on_stack = 0;
  EXPECT_EQ(registry.Translate(&on_stack).page_size,
            PageSize::k4K);  // default
}

TEST(PageRegistry, UnregisterOnDestruction) {
  PageRegistry registry;
  const std::byte* where;
  {
    PagedBuffer buffer(4096, PageSize::k2M, &registry);
    where = buffer.data();
    EXPECT_EQ(registry.regions().size(), 1u);
    EXPECT_EQ(registry.Translate(where).page_size, PageSize::k2M);
  }
  EXPECT_TRUE(registry.regions().empty());
}

TEST(PageRegistry, PageNumberUsesBackingPageSize) {
  PageRegistry registry;
  PagedBuffer buffer(1 << 20, PageSize::k2M, &registry);
  // All addresses within one 2M page share a page number.
  auto base = registry.Translate(buffer.data()).page;
  auto later = registry.Translate(buffer.data() + (1 << 20) - 1).page;
  EXPECT_LE(later - base, 1u);
}

TEST(PagedBuffer, MoveTransfersOwnership) {
  PageRegistry registry;
  PagedBuffer a(4096, PageSize::k4K, &registry);
  std::memset(a.data(), 0xab, 4096);
  PagedBuffer b = std::move(a);
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_EQ(static_cast<unsigned char>(b.data()[100]), 0xabu);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(registry.regions().size(), 1u);
}

TEST(PagedBuffer, CacheLineAligned) {
  PageRegistry registry;
  for (std::size_t size : {64ull, 100ull, 4096ull, 1000000ull}) {
    PagedBuffer buffer(size, PageSize::k4K, &registry);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) % 64, 0u);
  }
}

// A buffer registers exactly its size, but numbers its pages over its
// 2 MB-aligned extent: the next region's first 4K page lies 512 pages on.
TEST(PagedBuffer, RegistersItsSizeAndPagesBy2MExtent) {
  PageRegistry registry;
  PagedBuffer small(100, PageSize::k4K, &registry);
  PagedBuffer next(4096, PageSize::k4K, &registry);
  const auto region = std::find_if(
      registry.regions().begin(), registry.regions().end(),
      [&](const PageRegistry::Region& r) {
        return r.base == reinterpret_cast<std::uintptr_t>(small.data());
      });
  ASSERT_NE(region, registry.regions().end());
  EXPECT_EQ(region->end - region->base, 100u);
  EXPECT_EQ(registry.Translate(next.data()).page -
                registry.Translate(small.data()).page,
            512u);
}

struct BigPrimary {
  std::uint64_t payload[8];
};
struct SmallSecondary {
  std::uint32_t value;
};

TEST(PairedPool, SharedIndexAddressesBothFragments) {
  PageRegistry registry;
  PairedPool<BigPrimary, SmallSecondary> pool(16, PageSize::k1G,
                                              PageSize::k4K, &registry);
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 100; ++i) {
    auto idx = pool.Allocate();
    pool.primary(idx).payload[0] = i * 7;
    pool.secondary(idx).value = i * 13;
    slots.push_back(idx);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(pool.primary(slots[i]).payload[0], static_cast<unsigned>(i * 7));
    EXPECT_EQ(pool.secondary(slots[i]).value, static_cast<unsigned>(i * 13));
  }
  EXPECT_EQ(pool.live(), 100u);
  EXPECT_GE(pool.capacity(), 100u);
}

TEST(PairedPool, FreedSlotsAreReused) {
  PairedPool<BigPrimary, SmallSecondary> pool(8, PageSize::k4K, nullptr);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  pool.Free(a);
  auto c = pool.Allocate();
  EXPECT_EQ(c, a);  // LIFO free list
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.high_water(), 2u);
  (void)b;
}

TEST(PairedPool, AddressesStableAcrossGrowth) {
  PairedPool<BigPrimary, SmallSecondary> pool(4, PageSize::k4K, nullptr);
  auto first = pool.Allocate();
  BigPrimary* p = &pool.primary(first);
  p->payload[3] = 0xdeadbeef;
  // Force many chunk allocations.
  for (int i = 0; i < 1000; ++i) pool.Allocate();
  EXPECT_EQ(&pool.primary(first), p);
  EXPECT_EQ(p->payload[3], 0xdeadbeefull);
}

TEST(PairedPool, PageTagsDifferPerFragment) {
  PageRegistry registry;
  PairedPool<BigPrimary, SmallSecondary> pool(16, PageSize::k1G,
                                              PageSize::k4K, &registry);
  auto idx = pool.Allocate();
  EXPECT_EQ(registry.Translate(&pool.primary(idx)).page_size, PageSize::k1G);
  EXPECT_EQ(registry.Translate(&pool.secondary(idx)).page_size,
            PageSize::k4K);
}

// Every chunk is its own allocation, but each fragment array numbers its
// pages as one span, with chunk i starting i chunks' bytes into it: the
// 1G-tagged primaries of 40 chunks share one page, the page-sized
// 4K-tagged secondaries take consecutive pages, and a rebuild after
// Clear() reuses the same pages.
TEST(PairedPool, ChunksShareTheirArraysPages) {
  struct PageSecondary {
    std::byte bytes[4096];
  };
  PageRegistry registry;
  PairedPool<BigPrimary, PageSecondary> pool(4, PageSize::k1G, PageSize::k4K,
                                             &registry);
  constexpr std::uint32_t kSlots = 160;
  std::vector<PageRegistry::Translation> primaries;
  std::vector<PageRegistry::Translation> secondaries;
  for (int build = 0; build < 2; ++build) {
    pool.Clear();
    for (std::uint32_t i = 0; i < kSlots; ++i) ASSERT_EQ(pool.Allocate(), i);
    ASSERT_EQ(pool.chunk_count(), 40u);
    const auto primary0 = registry.Translate(&pool.primary(0));
    const auto secondary0 = registry.Translate(&pool.secondary(0));
    for (std::uint32_t idx = 0; idx < kSlots; ++idx) {
      const auto primary = registry.Translate(&pool.primary(idx));
      EXPECT_EQ(primary.page_size, PageSize::k1G);
      EXPECT_EQ(primary.page, primary0.page) << idx;
      const std::byte* bytes = pool.secondary(idx).bytes;
      for (const std::byte* at : {bytes, bytes + 4095}) {
        const auto secondary = registry.Translate(at);
        EXPECT_EQ(secondary.page_size, PageSize::k4K);
        EXPECT_EQ(secondary.page, secondary0.page + idx) << idx;
      }
    }
    primaries.push_back(primary0);
    secondaries.push_back(secondary0);
  }
  EXPECT_EQ(primaries[1].page, primaries[0].page);
  EXPECT_EQ(secondaries[1].page, secondaries[0].page);
  // A second pool's array gets a span of its own.
  PairedPool<BigPrimary, PageSecondary> other(4, PageSize::k1G,
                                              PageSize::k4K, &registry);
  EXPECT_NE(registry.Translate(&other.primary(other.Allocate())).page,
            primaries[0].page);
}

TEST(PairedPool, ChunkIterationCoversHighWater) {
  PairedPool<BigPrimary, SmallSecondary> pool(8, PageSize::k4K, nullptr);
  for (int i = 0; i < 30; ++i) {
    auto idx = pool.Allocate();
    pool.primary(idx).payload[0] = idx;
  }
  std::size_t seen = 0;
  for (std::size_t c = 0; c < pool.chunk_count(); ++c) {
    const BigPrimary* chunk = pool.primary_chunk(c);
    for (std::size_t i = 0;
         i < pool.chunk_capacity() && seen < pool.high_water(); ++i, ++seen) {
      EXPECT_EQ(chunk[i].payload[0], seen);
    }
  }
  EXPECT_EQ(seen, 30u);
}

}  // namespace
}  // namespace hbtree
