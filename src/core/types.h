#ifndef HBTREE_CORE_TYPES_H_
#define HBTREE_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace hbtree {

/// 64-bit key type used by the "64-bit" tree variants in the paper.
using Key64 = std::uint64_t;
/// 32-bit key type used by the "32-bit" tree variants in the paper.
using Key32 = std::uint32_t;

/// Width of one cache line in bytes. All node layouts in the paper are
/// expressed in cache-line units (Section 4.1).
inline constexpr std::size_t kCacheLineSize = 64;

/// A key-value pair as stored in leaf nodes. The paper stores values of the
/// same width as keys, so the pair is 16 bytes (64-bit) or 8 bytes (32-bit).
template <typename K>
struct KeyValue {
  K key;
  K value;

  friend bool operator==(const KeyValue&, const KeyValue&) = default;
};

static_assert(sizeof(KeyValue<Key64>) == 16);
static_assert(sizeof(KeyValue<Key32>) == 8);

/// Traits shared by the supported key widths.
///
/// `kMax` (2^n - 1) is the sentinel the paper writes into every empty key
/// slot so node search never needs the node size (Section 4.1).
template <typename K>
struct KeyTraits {
  static_assert(std::is_same_v<K, Key64> || std::is_same_v<K, Key32>,
                "HB+-tree supports 32-bit and 64-bit unsigned keys");

  static constexpr K kMax = std::numeric_limits<K>::max();
  /// Keys (or values) per cache line: 8 for 64-bit, 16 for 32-bit.
  static constexpr int kPerCacheLine =
      static_cast<int>(kCacheLineSize / sizeof(K));
  /// Key-value pairs per leaf cache line: 4 for 64-bit, 8 for 32-bit.
  static constexpr int kPairsPerCacheLine =
      static_cast<int>(kCacheLineSize / sizeof(KeyValue<K>));
};

/// Result of a point lookup.
template <typename K>
struct LookupResult {
  bool found = false;
  K value = 0;

  friend bool operator==(const LookupResult&, const LookupResult&) = default;
};

/// A range query: scan starting at `first_key`, returning up to
/// `match_count` pairs (Figure 17 fixes the number of matching keys).
template <typename K>
struct RangeQuery {
  K first_key;
  int match_count;
};

/// An update request: insert or delete one pair (Section 5.6).
template <typename K>
struct UpdateQuery {
  enum class Kind { kInsert, kDelete } kind;
  KeyValue<K> pair;
};

}  // namespace hbtree

#endif  // HBTREE_CORE_TYPES_H_
