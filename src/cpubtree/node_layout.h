#ifndef HBTREE_CPUBTREE_NODE_LAYOUT_H_
#define HBTREE_CPUBTREE_NODE_LAYOUT_H_

#include <cstdint>

#include "core/types.h"

namespace hbtree {

/// Node layouts of the CPU-optimized B+-tree (Section 4.1, Figure 2) and
/// of the HB+-tree, which reuses them (Section 5.2).
///
/// All layouts are expressed in whole cache lines. Key separators follow
/// the "max-key" scheme: the key stored for a child is the maximum key of
/// that child's subtree, and every empty slot holds the maximum
/// representable value, so intra-node search never needs the node size.

// ---------------------------------------------------------------------------
// Implicit tree (Figure 2 (a)/(b)).
// ---------------------------------------------------------------------------

/// One implicit inner node: a single cache line of keys. With 64-bit keys
/// the CPU-optimized tree uses all 8 keys as separators for 9 children
/// (fanout 9); the HB+-tree variant drops to fanout 8 with the last key
/// pinned to the maximum so the GPU kernel's 8-thread team maps one thread
/// per key (Section 5.2).
template <typename K>
struct alignas(kCacheLineSize) ImplicitInnerNode {
  K keys[KeyTraits<K>::kPerCacheLine];
};

/// One implicit leaf line: interleaved key-value pairs (Figure 2 (a)).
template <typename K>
struct alignas(kCacheLineSize) ImplicitLeafLine {
  KeyValue<K> pairs[KeyTraits<K>::kPairsPerCacheLine];
};

static_assert(sizeof(ImplicitInnerNode<Key64>) == kCacheLineSize);
static_assert(sizeof(ImplicitInnerNode<Key32>) == kCacheLineSize);
static_assert(sizeof(ImplicitLeafLine<Key64>) == kCacheLineSize);
static_assert(sizeof(ImplicitLeafLine<Key32>) == kCacheLineSize);

// ---------------------------------------------------------------------------
// Regular tree (Figure 2 (c)/(d)).
// ---------------------------------------------------------------------------

/// Compile-time shape of the regular tree's fat inner node.
template <typename K>
struct RegularShape {
  /// Indexes per index line == number of key lines == number of ref lines.
  static constexpr int kIdx = KeyTraits<K>::kPerCacheLine;  // 8 / 16
  /// Inner fanout F_I: 64 (64-bit) or 256 (32-bit), Section 4.1.
  static constexpr int kFanout = kIdx * kIdx;
  /// Pairs per leaf cache line: 4 / 8.
  static constexpr int kPairsPerLine = KeyTraits<K>::kPairsPerCacheLine;
  /// Lines per big leaf: one addressable line per last-level inner key.
  static constexpr int kLinesPerLeaf = kFanout;
  /// Big-leaf capacity: 256 pairs (64-bit), 2048 (32-bit).
  static constexpr int kLeafCapacity = kLinesPerLeaf * kPairsPerLine;
};

/// Hot fragment of a last-level inner node (Figure 2 (c) without its
/// reference lines): one index line whose entry s is the maximum key of
/// key line s, followed by the key lines. Its "children" are the lines of
/// the big leaf paired with it under the same pool index, so it stores no
/// child references. Search touches two of its cache lines: the index
/// line and one key line.
///
/// 9 cache lines for 64-bit keys, 17 for 32-bit keys.
template <typename K>
struct alignas(kCacheLineSize) RegularLastInnerHot {
  using Shape = RegularShape<K>;

  K indexes[Shape::kIdx];
  K keys[Shape::kFanout];
};

/// Hot fragment of a regular inner node above the last level (Figure
/// 2 (c)): the last-level fragment's lines followed by the child-reference
/// lines. Search touches exactly three of its cache lines: the index line,
/// one key line, one ref line.
///
/// 17 cache lines for 64-bit keys, 33 for 32-bit keys.
template <typename K>
struct alignas(kCacheLineSize) RegularInnerHot : RegularLastInnerHot<K> {
  /// Child references: pool indices of the next level's nodes, stored in
  /// key-sized slots as in the paper's layout.
  K refs[RegularShape<K>::kFanout];
};

static_assert(sizeof(RegularLastInnerHot<Key64>) == 9 * kCacheLineSize);
static_assert(sizeof(RegularLastInnerHot<Key32>) == 17 * kCacheLineSize);
static_assert(sizeof(RegularInnerHot<Key64>) == 17 * kCacheLineSize);
static_assert(sizeof(RegularInnerHot<Key32>) == 33 * kCacheLineSize);

/// Index used to reference pooled nodes.
using NodeRef = std::uint32_t;
inline constexpr NodeRef kNullRef = 0xffffffffu;

/// Cold fragment of a regular inner node (Section 4.1's node
/// fragmentation): bookkeeping that search never touches, allocated from a
/// separate array under the same pool index.
struct alignas(kCacheLineSize) RegularInnerCold {
  std::uint16_t child_count;
  std::uint8_t level;  // 1 = last inner level, counting up toward the root
  std::uint8_t unused_;
  NodeRef parent;
  NodeRef left_sibling;
  NodeRef right_sibling;
};

static_assert(sizeof(RegularInnerCold) == kCacheLineSize);

/// A big leaf (Figure 2 (d)): kLinesPerLeaf data lines of sorted pairs
/// plus one info line. Paired one-to-one with a last-level inner node
/// (RegularLastInnerHot) under a shared pool index; line c of the leaf is
/// addressed directly from the inner node's search result (key line s,
/// slot j -> line s*kIdx+j) with no pointer dereference.
template <typename K>
struct alignas(kCacheLineSize) RegularBigLeaf {
  using Shape = RegularShape<K>;

  KeyValue<K> pairs[Shape::kLeafCapacity];

  struct alignas(kCacheLineSize) Info {
    std::uint32_t pair_count;  // live pairs in this big leaf
    NodeRef parent;            // inner node one level above the last level
    NodeRef next;              // big-leaf chain for range scans
    NodeRef prev;
    /// This node's separator in its parent (kMax on the rightmost spine).
    /// Changed only by structural operations; every key routed here is
    /// <= upper_bound, so refills pin the last live line's separator to it.
    K upper_bound;
  } info;
};

static_assert(sizeof(RegularBigLeaf<Key64>) == 65 * kCacheLineSize);
static_assert(sizeof(RegularBigLeaf<Key32>) == 257 * kCacheLineSize);

}  // namespace hbtree

#endif  // HBTREE_CPUBTREE_NODE_LAYOUT_H_
