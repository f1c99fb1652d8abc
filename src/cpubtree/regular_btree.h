#ifndef HBTREE_CPUBTREE_REGULAR_BTREE_H_
#define HBTREE_CPUBTREE_REGULAR_BTREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/macros.h"
#include "core/simd.h"
#include "core/trace.h"
#include "core/types.h"
#include "cpubtree/node_layout.h"
#include "mem/page_allocator.h"
#include "mem/paired_pool.h"

namespace hbtree {

/// Identifies a node whose hot fragment changed, for I-segment
/// synchronization to GPU memory (Section 5.6).
struct ModifiedNode {
  bool last_level;  // true: leaf_pool (last inner level); false: inner_pool
  NodeRef ref;

  friend bool operator==(const ModifiedNode&, const ModifiedNode&) = default;
};

/// Regular (pointer-based) CPU-optimized B+-tree, Section 4.1 /
/// Figure 2 (c)-(d).
///
/// Inner nodes are 17-cache-line fat nodes (64-bit keys; 33 lines for
/// 32-bit): an index line narrows the search to one key line, whose hit
/// position selects an entry of the aligned reference line — three line
/// touches per level. Node metadata that search never reads (size,
/// parent, siblings) lives in a separate cold-fragment array sharing the
/// node's pool index (inner-node fragmentation).
///
/// The last inner level is special: each of its nodes is paired, under a
/// shared pool index, with one "big leaf" of F_I cache lines (256
/// key-value pairs for 64-bit keys). The inner search result (key line s,
/// slot j) addresses leaf line s*kIdx+j directly — no pointer is stored
/// or followed, so its hot fragment is the index line and the key lines
/// only: 9 cache lines (17 for 32-bit keys). The last level holds nearly
/// all of the I-segment's nodes.
///
/// Separator scheme: keys[c] is a fixed upper bound for child/line c
/// (initialized to the child's max key), empty slots hold the maximum
/// representable value, and the rightmost node of every level pins its
/// last live separator to the maximum ("infinity"), so search never runs
/// off the end of a node and inserts of new maxima need no separator
/// updates.
template <typename K>
class RegularBTree {
 public:
  using Shape = RegularShape<K>;
  using Hot = RegularInnerHot<K>;
  using LastHot = RegularLastInnerHot<K>;
  using Cold = RegularInnerCold;
  using Leaf = RegularBigLeaf<K>;

  static constexpr int kIdx = Shape::kIdx;
  static constexpr int kFanout = Shape::kFanout;
  static constexpr int kPairsPerLine = Shape::kPairsPerLine;
  static constexpr int kLeafCap = Shape::kLeafCapacity;
  static constexpr K kMax = KeyTraits<K>::kMax;

  struct Config {
    PageSize inner_page = PageSize::k1G;
    PageSize leaf_page = PageSize::k1G;
    NodeSearchAlgo search_algo = NodeSearchAlgo::kHierarchicalSimd;
    /// Bulk-load fill factors. 1.0 reproduces the paper's "tree is full"
    /// analysis; update-heavy workloads build with slack.
    double leaf_fill = 1.0;
    double inner_fill = 1.0;
    std::size_t pool_chunk_nodes = 2048;
    /// Gapped-leaf insert policy (BS-tree style): when the destination
    /// cache line is full, shift boundary pairs toward the nearest line
    /// with a gap instead of redistributing the whole big leaf. Above
    /// this occupancy the gaps are nearly exhausted and a full
    /// redistribution (which re-spreads the slack evenly) wins.
    double gap_spill_occupancy = 0.85;
    /// How many lines to each side the spill searches for a gap before
    /// giving up and redistributing the whole leaf.
    int gap_spill_window = 8;
  };

  RegularBTree(const Config& config, PageRegistry* registry)
      : config_(config),
        inner_pool_(config.pool_chunk_nodes, config.inner_page,
                    config.inner_page, registry),
        leaf_pool_(config.pool_chunk_nodes, config.inner_page,
                   config.leaf_page, registry) {}

  /// Bulk-builds from key-sorted unique pairs (no key may be the maximum
  /// representable value).
  void Build(const std::vector<KeyValue<K>>& sorted_pairs);

  // -- Lookup -------------------------------------------------------------

  template <typename Tracer = NullTracer>
  LookupResult<K> Search(K key, Tracer* tracer = nullptr) const;

  /// Inner traversal only: returns the last-inner pool index and the leaf
  /// line selected for `key` — the GPU's share of the work in the regular
  /// HB+-tree (Section 5.3).
  struct LeafPosition {
    NodeRef last_inner;
    int line;
  };
  template <typename Tracer = NullTracer>
  LeafPosition FindLeafPosition(K key, Tracer* tracer = nullptr) const;

  /// Final CPU step: searches one cache line of the big leaf paired with
  /// `pos.last_inner`.
  template <typename Tracer = NullTracer>
  LookupResult<K> SearchLeafLine(LeafPosition pos, K key,
                                 Tracer* tracer = nullptr) const;

  /// Range scan: up to `max_matches` pairs with key >= `first_key`.
  template <typename Tracer = NullTracer>
  int RangeScan(K first_key, int max_matches, KeyValue<K>* out,
                Tracer* tracer = nullptr) const;

  /// Leaf-sequential part of a range scan starting at `pos` (the CPU's
  /// share of an HB+-tree range query; the GPU supplies the position).
  template <typename Tracer = NullTracer>
  int ScanLeaves(LeafPosition pos, K first_key, int max_matches,
                 KeyValue<K>* out, Tracer* tracer = nullptr) const {
    NullTracer null_tracer;
    auto* t = ResolveTracer(tracer, &null_tracer);
    NodeRef node = pos.last_inner;
    int line = pos.line;
    int copied = 0;
    while (copied < max_matches && node != kNullRef) {
      TraceNodeTouch(t, leaf_pool_, 0, NodeClass::kBigLeaf, node);
      const Leaf& leaf = leaf_pool_.secondary(node);
      for (; line < Shape::kLinesPerLeaf && copied < max_matches; ++line) {
        const KeyValue<K>* lp = leaf.pairs + line * kPairsPerLine;
        t->OnAccess(lp, kCacheLineSize);
        for (int i = 0; i < kPairsPerLine && copied < max_matches; ++i) {
          if (lp[i].key == kMax) break;  // end of this line's live pairs
          if (lp[i].key >= first_key) out[copied++] = lp[i];
        }
      }
      node = leaf.info.next;
      line = 0;
    }
    return copied;
  }

  // -- Updates ------------------------------------------------------------

  /// Inserts a pair; returns false if the key already exists (no change).
  /// Appends any inner nodes whose hot fragment changed to `modified`
  /// (may be null), for GPU I-segment synchronization.
  bool Insert(const KeyValue<K>& pair,
              std::vector<ModifiedNode>* modified = nullptr);

  /// Erases a key; returns false if absent.
  bool Erase(K key, std::vector<ModifiedNode>* modified = nullptr);

  /// Locates the last-level inner node responsible for `key` (the lock
  /// target of the parallel batch updater, Section 5.6).
  NodeRef FindLastInner(K key) const;

  /// Partial descent for the load-balancing scheme (Section 5.5): follows
  /// `depth` levels from the root (depth < height) and returns the inner
  /// node reached at level height - depth.
  template <typename Tracer = NullTracer>
  NodeRef DescendLevels(K key, int depth, Tracer* tracer = nullptr) const {
    NullTracer null_tracer;
    auto* t = ResolveTracer(tracer, &null_tracer);
    HBTREE_DCHECK(depth < root_level_);
    NodeRef node = root_;
    for (int level = root_level_; level > root_level_ - depth; --level) {
      TraceNodeTouch(t, inner_pool_, level, NodeClass::kInner, node);
      const Hot& hot = inner_pool_.primary(node);
      int c = SearchNode(hot, key, t);
      t->OnAccess(hot.refs + (c / kIdx) * kIdx, kCacheLineSize);
      node = static_cast<NodeRef>(hot.refs[c]);
    }
    return node;
  }

  /// True if applying the update to the leaf under `last_inner` would
  /// require a split or merge (must then go through Insert/Erase on a
  /// single thread).
  bool WouldBeStructural(NodeRef last_inner, bool is_insert, K key) const;

  /// Applies a non-structural update directly to the leaf paired with
  /// `last_inner`. Caller must hold that node's lock and have verified
  /// !WouldBeStructural. Returns false if a duplicate insert / missing
  /// delete made it a no-op.
  bool ApplyNonStructural(NodeRef last_inner, bool is_insert,
                          const KeyValue<K>& pair,
                          std::vector<ModifiedNode>* modified = nullptr);

  // -- Geometry / introspection -------------------------------------------

  std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  /// Number of inner levels (1 = the root is a last-level node).
  int height() const { return root_level_; }

  /// The hot fragments of every slot either pool has handed out: what a
  /// device mirror of the I-segment holds and its full upload moves.
  std::size_t i_segment_bytes() const {
    return inner_pool_.high_water() * sizeof(Hot) +
           leaf_pool_.high_water() * sizeof(LastHot);
  }
  std::size_t l_segment_bytes() const { return leaf_pool_.secondary_bytes(); }

  const Config& config() const { return config_; }
  NodeRef root() const { return root_; }
  NodeRef head_leaf() const { return head_leaf_; }

  using InnerPool = PairedPool<Hot, Cold>;
  using LeafPool = PairedPool<LastHot, Leaf>;
  const InnerPool& inner_pool() const { return inner_pool_; }
  const LeafPool& leaf_pool() const { return leaf_pool_; }
  /// Mutable pool access for the delta-sync driver (dirty-list handoff).
  InnerPool& inner_pool() { return inner_pool_; }
  LeafPool& leaf_pool() { return leaf_pool_; }
  const Hot& inner_hot(NodeRef ref) const { return inner_pool_.primary(ref); }
  const LastHot& last_hot(NodeRef ref) const {
    return leaf_pool_.primary(ref);
  }
  const Leaf& big_leaf(NodeRef ref) const { return leaf_pool_.secondary(ref); }

  /// Structural self-check (test support); aborts on violation.
  void Validate() const;

 private:
  struct PathEntry {
    NodeRef ref;  // inner_pool node (level >= 2)
    int slot;     // child slot taken
  };

  // Intra-node search: index line then key line; returns child slot c.
  // Serves both levels' fragments: an inner fragment begins with the
  // lines of a last-level one.
  template <typename Tracer>
  int SearchNode(const LastHot& hot, K key, Tracer* t) const {
    t->OnAccess(hot.indexes, kCacheLineSize);
    int s = SearchCacheLine(hot.indexes, key, config_.search_algo);
    HBTREE_DCHECK(s < kIdx);
    t->OnAccess(hot.keys + s * kIdx, kCacheLineSize);
    int j = SearchCacheLine(hot.keys + s * kIdx, key, config_.search_algo);
    HBTREE_DCHECK(j < kIdx);
    return s * kIdx + j;
  }

  // Descends to the last-level node, recording the path (slots taken in
  // inner_pool nodes, root first).
  NodeRef DescendWithPath(K key, std::vector<PathEntry>* path) const;

  static int LiveInLine(const KeyValue<K>* line);
  static int LastLiveLine(const Leaf& leaf);  // -1 if leaf empty

  /// Recomputes indexes[s] = keys[s*kIdx + kIdx - 1] for all s.
  static void RebuildIndexes(LastHot& hot);

  /// Redistributes `pairs` (sorted) evenly over the leaf's lines and
  /// rewrites the paired node's separators: each line's separator is its
  /// content maximum, except the last live line whose separator is set to
  /// `last_sep`. Callers must pass a `last_sep` no smaller than the
  /// node's upper bound in its parent (kMax on the rightmost spine), so
  /// intra-node search can never run past the live lines even after
  /// deletions have shrunk the content maximum.
  void FillLeaf(NodeRef ref, const KeyValue<K>* pairs, int count, K last_sep);


  /// Inserts child (sep, ref) at `slot` of inner node `node`, shifting
  /// existing entries right. Caller guarantees space.
  void InsertChildAt(NodeRef node, int slot, K sep, NodeRef child);
  /// Removes the child at `slot`.
  void RemoveChildAt(NodeRef node, int slot);

  /// Splits the leaf-pool node `ref` (full big leaf), inserting `extra`
  /// in the process; then propagates a new child into the parents on
  /// `path`. Appends modified nodes.
  void SplitLeafAndInsert(NodeRef ref, const KeyValue<K>& extra,
                          std::vector<PathEntry>& path,
                          std::vector<ModifiedNode>* modified);

  /// Inserts (sep, child) into the parent of path entry `depth` (the
  /// node at path[depth]), splitting upward as needed. `after_slot` is
  /// the slot whose separator becomes `left_sep`.
  void InsertIntoParent(std::vector<PathEntry>& path, int depth, K left_sep,
                        NodeRef new_child,
                        std::vector<ModifiedNode>* modified);

  /// After an erase that underflowed the leaf at `ref`, merges it with a
  /// sibling when possible. `path` is the descent path.
  void MaybeMergeLeaf(NodeRef ref, std::vector<PathEntry>& path,
                      std::vector<ModifiedNode>* modified);

  /// After removing a child from inner node path[depth], merges that node
  /// with a sibling when it underflowed.
  void MaybeMergeInner(std::vector<PathEntry>& path, int depth,
                       std::vector<ModifiedNode>* modified);

  /// Sets parent pointers of `node`'s children in [first, last) to `node`.
  void AdoptChildren(NodeRef node, int first, int last);

  /// Every hot-fragment change funnels through here: the owning pool's
  /// dirty mark is what makes the delta I-segment sync sound, so it is
  /// unconditional — `modified` (the caller's per-batch list) is optional.
  void RecordModified(std::vector<ModifiedNode>* modified, bool last_level,
                      NodeRef ref) {
    if (last_level) {
      leaf_pool_.MarkDirty(ref);
    } else {
      inner_pool_.MarkDirty(ref);
    }
    if (modified != nullptr) modified->push_back({last_level, ref});
  }

  /// BS-tree style local insert: makes room for `pair` (destined for the
  /// full line `line` at intra-line position implied by key order) by
  /// re-flowing pairs between `line` and the nearest line with a gap.
  /// Returns false when no gap lies within the configured window.
  bool SpillIntoGap(NodeRef last_inner, int line, const KeyValue<K>& pair);

  template <typename Tracer>
  static Tracer* ResolveTracer(Tracer* tracer, NullTracer* fallback) {
    if constexpr (std::is_same_v<Tracer, NullTracer>) {
      return tracer != nullptr ? tracer : fallback;
    } else {
      HBTREE_DCHECK(tracer != nullptr);
      return tracer;
    }
  }

  void ValidateSubtree(NodeRef node, int level, K upper_bound,
                       std::size_t* pair_total) const;

  Config config_;
  InnerPool inner_pool_;
  LeafPool leaf_pool_;

  NodeRef root_ = kNullRef;
  int root_level_ = 0;
  NodeRef head_leaf_ = kNullRef;
  /// Pair count. Atomic (relaxed) so the parallel batch updater's
  /// non-structural path can run concurrently under per-node locks.
  std::atomic<std::size_t> size_{0};
};

// ---------------------------------------------------------------------------
// Lookup.
// ---------------------------------------------------------------------------

template <typename K>
template <typename Tracer>
typename RegularBTree<K>::LeafPosition RegularBTree<K>::FindLeafPosition(
    K key, Tracer* tracer) const {
  NullTracer null_tracer;
  auto* t = ResolveTracer(tracer, &null_tracer);
  NodeRef node = root_;
  int level = root_level_;
  while (level > 1) {
    TraceNodeTouch(t, inner_pool_, level, NodeClass::kInner, node);
    const Hot& hot = inner_pool_.primary(node);
    int c = SearchNode(hot, key, t);
    t->OnAccess(hot.refs + (c / kIdx) * kIdx, kCacheLineSize);
    node = static_cast<NodeRef>(hot.refs[c]);
    --level;
  }
  TraceNodeTouch(t, leaf_pool_, 1, NodeClass::kLastInner, node);
  const LastHot& hot = leaf_pool_.primary(node);
  int c = SearchNode(hot, key, t);
  return LeafPosition{node, c};
}

template <typename K>
template <typename Tracer>
LookupResult<K> RegularBTree<K>::SearchLeafLine(LeafPosition pos, K key,
                                                Tracer* tracer) const {
  NullTracer null_tracer;
  auto* t = ResolveTracer(tracer, &null_tracer);
  TraceNodeTouch(t, leaf_pool_, 0, NodeClass::kBigLeaf, pos.last_inner);
  const Leaf& leaf = leaf_pool_.secondary(pos.last_inner);
  const KeyValue<K>* line = leaf.pairs + pos.line * kPairsPerLine;
  t->OnAccess(line, kCacheLineSize);
  for (int i = 0; i < kPairsPerLine; ++i) {
    if (line[i].key == key && key != kMax) {
      return LookupResult<K>{true, line[i].value};
    }
  }
  return LookupResult<K>{false, 0};
}

template <typename K>
template <typename Tracer>
LookupResult<K> RegularBTree<K>::Search(K key, Tracer* tracer) const {
  NullTracer null_tracer;
  auto* t = ResolveTracer(tracer, &null_tracer);
  t->OnQueryStart();
  LeafPosition pos = FindLeafPosition(key, t);
  LookupResult<K> result = SearchLeafLine(pos, key, t);
  t->OnQueryEnd();
  return result;
}

template <typename K>
template <typename Tracer>
int RegularBTree<K>::RangeScan(K first_key, int max_matches, KeyValue<K>* out,
                               Tracer* tracer) const {
  NullTracer null_tracer;
  auto* t = ResolveTracer(tracer, &null_tracer);
  t->OnQueryStart();
  LeafPosition pos = FindLeafPosition(first_key, t);
  int copied = ScanLeaves(pos, first_key, max_matches, out, t);
  t->OnQueryEnd();
  return copied;
}

// ---------------------------------------------------------------------------
// Bulk build.
// ---------------------------------------------------------------------------

template <typename K>
void RegularBTree<K>::Build(const std::vector<KeyValue<K>>& sorted_pairs) {
  HBTREE_CHECK(!sorted_pairs.empty());
  inner_pool_.Clear();
  leaf_pool_.Clear();
  size_.store(sorted_pairs.size(), std::memory_order_relaxed);

  const int pairs_per_leaf = std::clamp(
      static_cast<int>(kLeafCap * config_.leaf_fill), 1, kLeafCap);
  const int children_per_inner = std::clamp(
      static_cast<int>(kFanout * config_.inner_fill), 2, kFanout);

  // -- Leaf level (paired last-level inner nodes) ---------------------------
  struct Entry {
    K sep;        // subtree separator for the parent
    NodeRef ref;  // node reference (leaf_pool at level 1, else inner_pool)
  };
  std::vector<Entry> level_entries;
  NodeRef prev_leaf = kNullRef;
  for (std::size_t begin = 0; begin < size_; begin += pairs_per_leaf) {
    const int count = static_cast<int>(
        std::min<std::size_t>(pairs_per_leaf, size_ - begin));
    NodeRef ref = static_cast<NodeRef>(leaf_pool_.Allocate());
    const bool rightmost = begin + count >= size_;
    const K bound = rightmost ? kMax : sorted_pairs[begin + count - 1].key;
    Leaf& leaf = leaf_pool_.secondary(ref);
    leaf.info.upper_bound = bound;
    FillLeaf(ref, sorted_pairs.data() + begin, count, bound);
    leaf.info.prev = prev_leaf;
    leaf.info.next = kNullRef;
    leaf.info.parent = kNullRef;
    if (prev_leaf != kNullRef) {
      leaf_pool_.secondary(prev_leaf).info.next = ref;
    } else {
      head_leaf_ = ref;
    }
    prev_leaf = ref;
    level_entries.push_back(
        Entry{rightmost ? kMax : sorted_pairs[begin + count - 1].key, ref});
  }

  // -- Inner levels ---------------------------------------------------------
  int level = 1;
  while (level_entries.size() > 1 || level == 1) {
    ++level;
    std::vector<Entry> next_entries;
    NodeRef prev_node = kNullRef;
    for (std::size_t begin = 0; begin < level_entries.size();
         begin += children_per_inner) {
      const int count = static_cast<int>(std::min<std::size_t>(
          children_per_inner, level_entries.size() - begin));
      NodeRef ref = static_cast<NodeRef>(inner_pool_.Allocate());
      Hot& hot = inner_pool_.primary(ref);
      for (int c = 0; c < kFanout; ++c) {
        hot.keys[c] = c < count ? level_entries[begin + c].sep : kMax;
        hot.refs[c] =
            c < count ? static_cast<K>(level_entries[begin + c].ref) : 0;
      }
      RebuildIndexes(hot);
      Cold& cold = inner_pool_.secondary(ref);
      cold.child_count = static_cast<std::uint16_t>(count);
      cold.level = static_cast<std::uint8_t>(level);
      cold.parent = kNullRef;
      cold.left_sibling = prev_node;
      cold.right_sibling = kNullRef;
      if (prev_node != kNullRef) {
        inner_pool_.secondary(prev_node).right_sibling = ref;
      }
      prev_node = ref;
      AdoptChildren(ref, 0, count);
      next_entries.push_back(Entry{hot.keys[count - 1], ref});
    }
    level_entries = std::move(next_entries);
    if (level_entries.size() == 1) break;
  }

  // The level loop always runs at least once, so the freshly built root is
  // an inner node (it may later collapse to a last-level root via merges).
  root_ = level_entries[0].ref;
  root_level_ = level;
}

// ---------------------------------------------------------------------------
// Leaf helpers.
// ---------------------------------------------------------------------------

template <typename K>
int RegularBTree<K>::LiveInLine(const KeyValue<K>* line) {
  int live = 0;
  while (live < kPairsPerLine && line[live].key != kMax) ++live;
  return live;
}

template <typename K>
int RegularBTree<K>::LastLiveLine(const Leaf& leaf) {
  for (int line = Shape::kLinesPerLeaf - 1; line >= 0; --line) {
    if (leaf.pairs[line * kPairsPerLine].key != kMax) return line;
  }
  return -1;
}

template <typename K>
void RegularBTree<K>::RebuildIndexes(LastHot& hot) {
  for (int s = 0; s < kIdx; ++s) {
    hot.indexes[s] = hot.keys[s * kIdx + kIdx - 1];
  }
}

template <typename K>
void RegularBTree<K>::FillLeaf(NodeRef ref, const KeyValue<K>* pairs,
                               int count, K last_sep) {
  HBTREE_CHECK(count >= 0 && count <= kLeafCap);
  HBTREE_DCHECK(count == 0 || last_sep >= pairs[count - 1].key);
  LastHot& hot = leaf_pool_.primary(ref);
  Leaf& leaf = leaf_pool_.secondary(ref);
  // Spread pairs evenly over the lines, front-heavy, no middle gaps.
  const int lines = Shape::kLinesPerLeaf;
  const int base = count / lines;
  const int extra = count % lines;
  int taken = 0;
  int last_live = -1;
  for (int line = 0; line < lines; ++line) {
    const int here = base + (line < extra ? 1 : 0);
    KeyValue<K>* lp = leaf.pairs + line * kPairsPerLine;
    for (int i = 0; i < kPairsPerLine; ++i) {
      lp[i] = i < here ? pairs[taken + i] : KeyValue<K>{kMax, kMax};
    }
    hot.keys[line] = here > 0 ? pairs[taken + here - 1].key : kMax;
    if (here > 0) last_live = line;
    taken += here;
  }
  if (last_live >= 0) hot.keys[last_live] = last_sep;
  RebuildIndexes(hot);
  leaf.info.pair_count = static_cast<std::uint32_t>(count);
}

// ---------------------------------------------------------------------------
// Updates.
// ---------------------------------------------------------------------------

template <typename K>
NodeRef RegularBTree<K>::DescendWithPath(K key,
                                         std::vector<PathEntry>* path) const {
  NodeRef node = root_;
  int level = root_level_;
  while (level > 1) {
    const Hot& hot = inner_pool_.primary(node);
    NullTracer t;
    int c = SearchNode(hot, key, &t);
    if (path != nullptr) path->push_back(PathEntry{node, c});
    node = static_cast<NodeRef>(hot.refs[c]);
    --level;
  }
  return node;
}

template <typename K>
NodeRef RegularBTree<K>::FindLastInner(K key) const {
  return DescendWithPath(key, nullptr);
}

template <typename K>
bool RegularBTree<K>::WouldBeStructural(NodeRef last_inner, bool is_insert,
                                        K key) const {
  const Leaf& leaf = leaf_pool_.secondary(last_inner);
  if (is_insert) {
    // Splits when the big leaf is full. A full destination line alone is
    // non-structural: redistribution within the big leaf handles it.
    return leaf.info.pair_count >= static_cast<std::uint32_t>(kLeafCap);
  }
  (void)key;
  // Deletes trigger a merge attempt below a quarter occupancy, unless
  // this leaf is the root's only leaf (nothing to merge with).
  if (root_level_ == 1) return false;
  return leaf.info.pair_count <=
         static_cast<std::uint32_t>(kLeafCap / 4);
}

template <typename K>
bool RegularBTree<K>::ApplyNonStructural(NodeRef last_inner, bool is_insert,
                                         const KeyValue<K>& pair,
                                         std::vector<ModifiedNode>* modified) {
  LastHot& hot = leaf_pool_.primary(last_inner);
  Leaf& leaf = leaf_pool_.secondary(last_inner);
  NullTracer t;
  const int line = SearchNode(hot, pair.key, &t);
  KeyValue<K>* lp = leaf.pairs + line * kPairsPerLine;
  int live = LiveInLine(lp);
  // Locate the key's position within the line.
  int pos = 0;
  while (pos < live && lp[pos].key < pair.key) ++pos;
  const bool present = pos < live && lp[pos].key == pair.key;

  if (is_insert) {
    if (present) return false;  // duplicate
    if (live < kPairsPerLine) {
      std::memmove(lp + pos + 1, lp + pos, (live - pos) * sizeof(KeyValue<K>));
      lp[pos] = pair;
      ++leaf.info.pair_count;
      size_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // Line full. While the leaf still has slack, shift pairs toward the
    // nearest gapped line (a local patch of O(window) lines); once
    // occupancy crosses the threshold, or no gap is near, fall back to
    // redistributing the whole big leaf, which re-spreads the slack.
    HBTREE_CHECK(leaf.info.pair_count <
                 static_cast<std::uint32_t>(kLeafCap));
    const bool crowded =
        static_cast<double>(leaf.info.pair_count) >=
        config_.gap_spill_occupancy * kLeafCap;
    if (crowded || !SpillIntoGap(last_inner, line, pair)) {
      std::vector<KeyValue<K>> all;
      all.reserve(leaf.info.pair_count + 1);
      for (int l = 0; l < Shape::kLinesPerLeaf; ++l) {
        const KeyValue<K>* src = leaf.pairs + l * kPairsPerLine;
        for (int i = 0; i < kPairsPerLine && src[i].key != kMax; ++i) {
          all.push_back(src[i]);
        }
      }
      auto it = std::lower_bound(
          all.begin(), all.end(), pair.key,
          [](const KeyValue<K>& kv, K k) { return kv.key < k; });
      all.insert(it, pair);
      // The node's external bound covers everything it can ever receive
      // and becomes the new last-live separator.
      FillLeaf(last_inner, all.data(), static_cast<int>(all.size()),
               leaf.info.upper_bound);
    }
    // Either path leaves pair_count including the new pair (FillLeaf
    // counts it; SpillIntoGap increments) and rewrites separators, so the
    // hot fragment must re-sync.
    RecordModified(modified, /*last_level=*/true, last_inner);
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Delete.
  if (!present) return false;
  std::memmove(lp + pos, lp + pos + 1, (live - pos - 1) * sizeof(KeyValue<K>));
  lp[live - 1] = KeyValue<K>{kMax, kMax};
  --leaf.info.pair_count;
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

template <typename K>
bool RegularBTree<K>::SpillIntoGap(NodeRef last_inner, int line,
                                   const KeyValue<K>& pair) {
  LastHot& hot = leaf_pool_.primary(last_inner);
  Leaf& leaf = leaf_pool_.secondary(last_inner);
  // Nearest line with a free slot, preferring the closer side. Lines
  // strictly between `line` and the chosen gap are therefore full.
  const int window = std::max(1, config_.gap_spill_window);
  int gap = -1;
  for (int d = 1; d <= window && gap < 0; ++d) {
    const int right = line + d;
    const int left = line - d;
    if (right < Shape::kLinesPerLeaf &&
        LiveInLine(leaf.pairs + right * kPairsPerLine) < kPairsPerLine) {
      gap = right;
    } else if (left >= 0 && LiveInLine(leaf.pairs + left * kPairsPerLine) <
                                kPairsPerLine) {
      gap = left;
    }
  }
  if (gap < 0) return false;

  const int lo = std::min(line, gap);
  const int hi = std::max(line, gap);
  const int nlines = hi - lo + 1;

  // Separator discipline: the leaf's last live line carries the node's
  // external bound as its separator (the pin; kMax on the rightmost
  // spine). If hi lies at or before the last live line, keys[hi] is a
  // bound (or the pin) the content still respects and must stay put. If
  // hi is a gap past it, its separator is stale — the pin it kept when
  // deletes emptied it, or kMax if it never held pairs — and the
  // re-flowed range becomes the leaf's last live line, which takes the
  // pin. The minimum covers both; copying a lower line's separator onto
  // hi instead would leave the keys between it and the pin with no line.
  HBTREE_DCHECK(LastLiveLine(leaf) >= line);  // search never passes the pin
  const K end_sep = std::min(hot.keys[hi], leaf.info.upper_bound);

  // Gather the range's pairs plus the new one (sorted by construction).
  KeyValue<K> buf[kLeafCap + 1];
  int count = 0;
  bool placed = false;
  for (int l = lo; l <= hi; ++l) {
    const KeyValue<K>* lp = leaf.pairs + l * kPairsPerLine;
    for (int i = 0; i < kPairsPerLine && lp[i].key != kMax; ++i) {
      if (!placed && pair.key < lp[i].key) {
        buf[count++] = pair;
        placed = true;
      }
      buf[count++] = lp[i];
    }
  }
  if (!placed) buf[count++] = pair;

  // Spread evenly (front-heavy) back over [lo, hi]: the interior lines
  // were full and only one gap line joined, so every line receives at
  // least two pairs — no empty line appears mid-leaf.
  const int base = count / nlines;
  const int extra = count % nlines;
  int taken = 0;
  for (int l = lo; l <= hi; ++l) {
    const int here = base + (l - lo < extra ? 1 : 0);
    KeyValue<K>* lp = leaf.pairs + l * kPairsPerLine;
    for (int i = 0; i < kPairsPerLine; ++i) {
      lp[i] = i < here ? buf[taken + i] : KeyValue<K>{kMax, kMax};
    }
    hot.keys[l] = buf[taken + here - 1].key;
    taken += here;
  }
  hot.keys[hi] = end_sep;
  RebuildIndexes(hot);
  ++leaf.info.pair_count;
  return true;
}

template <typename K>
bool RegularBTree<K>::Insert(const KeyValue<K>& pair,
                             std::vector<ModifiedNode>* modified) {
  HBTREE_CHECK(pair.key != kMax);
  std::vector<PathEntry> path;
  NodeRef ln = DescendWithPath(pair.key, &path);
  if (!WouldBeStructural(ln, /*is_insert=*/true, pair.key)) {
    return ApplyNonStructural(ln, /*is_insert=*/true, pair, modified);
  }
  // The big leaf is full — but the key may still be a duplicate.
  {
    const LastHot& hot = leaf_pool_.primary(ln);
    NullTracer t;
    const int line = SearchNode(hot, pair.key, &t);
    const KeyValue<K>* lp =
        leaf_pool_.secondary(ln).pairs + line * kPairsPerLine;
    for (int i = 0; i < kPairsPerLine; ++i) {
      if (lp[i].key == pair.key) return false;
    }
  }
  SplitLeafAndInsert(ln, pair, path, modified);
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

template <typename K>
void RegularBTree<K>::SplitLeafAndInsert(NodeRef ref, const KeyValue<K>& extra,
                                         std::vector<PathEntry>& path,
                                         std::vector<ModifiedNode>* modified) {
  Leaf& leaf = leaf_pool_.secondary(ref);
  // Gather all pairs plus the new one.
  std::vector<KeyValue<K>> all;
  all.reserve(leaf.info.pair_count + 1);
  for (int l = 0; l < Shape::kLinesPerLeaf; ++l) {
    const KeyValue<K>* src = leaf.pairs + l * kPairsPerLine;
    for (int i = 0; i < kPairsPerLine && src[i].key != kMax; ++i) {
      all.push_back(src[i]);
    }
  }
  auto it = std::lower_bound(
      all.begin(), all.end(), extra.key,
      [](const KeyValue<K>& kv, K k) { return kv.key < k; });
  all.insert(it, extra);

  const K old_bound = leaf.info.upper_bound;

  const int left_count = static_cast<int>(all.size()) / 2;
  const int right_count = static_cast<int>(all.size()) - left_count;

  NodeRef right = static_cast<NodeRef>(leaf_pool_.Allocate());
  // Left's bound shrinks to its new content max; right inherits the old
  // node's bound (kMax on the rightmost spine).
  const K left_sep = all[left_count - 1].key;
  FillLeaf(ref, all.data(), left_count, left_sep);
  FillLeaf(right, all.data() + left_count, right_count, old_bound);
  leaf_pool_.secondary(ref).info.upper_bound = left_sep;
  leaf_pool_.secondary(right).info.upper_bound = old_bound;
  RecordModified(modified, true, ref);
  RecordModified(modified, true, right);

  // Chain the new leaf.
  Leaf& new_leaf = leaf_pool_.secondary(right);
  Leaf& old_leaf = leaf_pool_.secondary(ref);
  new_leaf.info.next = old_leaf.info.next;
  new_leaf.info.prev = ref;
  new_leaf.info.parent = old_leaf.info.parent;
  if (old_leaf.info.next != kNullRef) {
    leaf_pool_.secondary(old_leaf.info.next).info.prev = right;
  }
  old_leaf.info.next = right;

  if (path.empty()) {
    // The split node was the root (root_level_ == 1): grow a new root.
    NodeRef new_root = static_cast<NodeRef>(inner_pool_.Allocate());
    Hot& rhot = inner_pool_.primary(new_root);
    for (int c = 0; c < kFanout; ++c) {
      rhot.keys[c] = kMax;
      rhot.refs[c] = 0;
    }
    rhot.keys[0] = left_sep;
    rhot.refs[0] = static_cast<K>(ref);
    rhot.keys[1] = kMax;  // rightmost spine
    rhot.refs[1] = static_cast<K>(right);
    RebuildIndexes(rhot);
    Cold& cold = inner_pool_.secondary(new_root);
    cold.child_count = 2;
    cold.level = 2;
    cold.parent = kNullRef;
    cold.left_sibling = kNullRef;
    cold.right_sibling = kNullRef;
    old_leaf.info.parent = new_root;
    new_leaf.info.parent = new_root;
    root_ = new_root;
    root_level_ = 2;
    RecordModified(modified, false, new_root);
    return;
  }
  InsertIntoParent(path, static_cast<int>(path.size()) - 1, left_sep, right,
                   modified);
}

template <typename K>
void RegularBTree<K>::InsertChildAt(NodeRef node, int slot, K sep,
                                    NodeRef child) {
  Hot& hot = inner_pool_.primary(node);
  Cold& cold = inner_pool_.secondary(node);
  HBTREE_DCHECK(cold.child_count < kFanout);
  const int count = cold.child_count;
  std::memmove(hot.keys + slot + 1, hot.keys + slot,
               (count - slot) * sizeof(K));
  std::memmove(hot.refs + slot + 1, hot.refs + slot,
               (count - slot) * sizeof(K));
  hot.keys[slot] = sep;
  hot.refs[slot] = static_cast<K>(child);
  ++cold.child_count;
  RebuildIndexes(hot);
}

template <typename K>
void RegularBTree<K>::RemoveChildAt(NodeRef node, int slot) {
  Hot& hot = inner_pool_.primary(node);
  Cold& cold = inner_pool_.secondary(node);
  const int count = cold.child_count;
  std::memmove(hot.keys + slot, hot.keys + slot + 1,
               (count - slot - 1) * sizeof(K));
  std::memmove(hot.refs + slot, hot.refs + slot + 1,
               (count - slot - 1) * sizeof(K));
  hot.keys[count - 1] = kMax;
  hot.refs[count - 1] = 0;
  --cold.child_count;
  RebuildIndexes(hot);
}

template <typename K>
void RegularBTree<K>::AdoptChildren(NodeRef node, int first, int last) {
  const Hot& hot = inner_pool_.primary(node);
  const Cold& cold = inner_pool_.secondary(node);
  for (int c = first; c < last; ++c) {
    NodeRef child = static_cast<NodeRef>(hot.refs[c]);
    if (cold.level == 2) {
      leaf_pool_.secondary(child).info.parent = node;
    } else {
      inner_pool_.secondary(child).parent = node;
    }
  }
}

template <typename K>
void RegularBTree<K>::InsertIntoParent(std::vector<PathEntry>& path,
                                       int depth, K left_sep,
                                       NodeRef new_child,
                                       std::vector<ModifiedNode>* modified) {
  PathEntry entry = path[depth];
  NodeRef node = entry.ref;
  Hot& hot = inner_pool_.primary(node);
  Cold& cold = inner_pool_.secondary(node);

  // The split child keeps its slot but its separator shrinks to left_sep;
  // the new right child inherits the old separator and goes one slot after.
  if (cold.child_count < kFanout) {
    K old_sep = hot.keys[entry.slot];
    hot.keys[entry.slot] = left_sep;
    InsertChildAt(node, entry.slot + 1, old_sep, new_child);
    AdoptChildren(node, entry.slot + 1, entry.slot + 2);
    RecordModified(modified, false, node);
    return;
  }

  // Full: split this inner node around the midpoint, then retry.
  const int half = kFanout / 2;
  NodeRef right = static_cast<NodeRef>(inner_pool_.Allocate());
  Hot& rhot = inner_pool_.primary(right);
  Cold& rcold = inner_pool_.secondary(right);
  Hot& lhot = inner_pool_.primary(node);  // re-reference after Allocate
  Cold& lcold = inner_pool_.secondary(node);

  for (int c = 0; c < kFanout; ++c) {
    rhot.keys[c] = c < kFanout - half ? lhot.keys[half + c] : kMax;
    rhot.refs[c] = c < kFanout - half ? lhot.refs[half + c] : 0;
  }
  for (int c = half; c < kFanout; ++c) {
    lhot.keys[c] = kMax;
    lhot.refs[c] = 0;
  }
  lcold.child_count = static_cast<std::uint16_t>(half);
  rcold.child_count = static_cast<std::uint16_t>(kFanout - half);
  rcold.level = lcold.level;
  rcold.parent = lcold.parent;
  rcold.left_sibling = node;
  rcold.right_sibling = lcold.right_sibling;
  if (lcold.right_sibling != kNullRef) {
    inner_pool_.secondary(lcold.right_sibling).left_sibling = right;
  }
  lcold.right_sibling = right;
  RebuildIndexes(lhot);
  RebuildIndexes(rhot);
  AdoptChildren(right, 0, rcold.child_count);
  RecordModified(modified, false, node);
  RecordModified(modified, false, right);

  const K node_left_sep = lhot.keys[half - 1];

  // Re-route the pending insertion into the correct half.
  if (entry.slot >= half) {
    path[depth] = PathEntry{right, entry.slot - half};
  }
  // Insert the split of this level into the grandparent first, so the
  // parent structure is consistent before we add the pending child.
  if (depth == 0) {
    // `node` was the root: grow a new root.
    NodeRef new_root = static_cast<NodeRef>(inner_pool_.Allocate());
    Hot& nrhot = inner_pool_.primary(new_root);
    for (int c = 0; c < kFanout; ++c) {
      nrhot.keys[c] = kMax;
      nrhot.refs[c] = 0;
    }
    nrhot.keys[0] = node_left_sep;
    nrhot.refs[0] = static_cast<K>(node);
    nrhot.keys[1] = kMax;  // rightmost spine
    nrhot.refs[1] = static_cast<K>(right);
    RebuildIndexes(nrhot);
    Cold& nrcold = inner_pool_.secondary(new_root);
    nrcold.child_count = 2;
    nrcold.level = static_cast<std::uint8_t>(lcold.level + 1);
    nrcold.parent = kNullRef;
    nrcold.left_sibling = kNullRef;
    nrcold.right_sibling = kNullRef;
    inner_pool_.secondary(node).parent = new_root;
    inner_pool_.secondary(right).parent = new_root;
    root_ = new_root;
    root_level_ = nrcold.level;
    RecordModified(modified, false, new_root);
  } else {
    InsertIntoParent(path, depth - 1, node_left_sep, right, modified);
    // The grandparent insertion may have re-routed path[depth-1], but
    // path[depth] already points at the correct (possibly new) node.
  }
  // Finally place the pending child.
  InsertIntoParent(path, depth, left_sep, new_child, modified);
}

template <typename K>
bool RegularBTree<K>::Erase(K key, std::vector<ModifiedNode>* modified) {
  std::vector<PathEntry> path;
  NodeRef ln = DescendWithPath(key, &path);
  const bool structural = WouldBeStructural(ln, /*is_insert=*/false, key);
  if (!ApplyNonStructural(ln, /*is_insert=*/false, KeyValue<K>{key, 0},
                          modified)) {
    return false;
  }
  if (structural) MaybeMergeLeaf(ln, path, modified);
  return true;
}

template <typename K>
void RegularBTree<K>::MaybeMergeLeaf(NodeRef ref,
                                     std::vector<PathEntry>& path,
                                     std::vector<ModifiedNode>* modified) {
  if (path.empty()) return;  // root leaf: nothing to merge with
  Leaf& leaf = leaf_pool_.secondary(ref);
  if (leaf.info.pair_count > static_cast<std::uint32_t>(kLeafCap / 4)) {
    return;
  }
  PathEntry parent_entry = path.back();
  NodeRef parent = parent_entry.ref;
  Cold& pcold = inner_pool_.secondary(parent);
  // Pick an adjacent sibling under the same parent (prefer right).
  int slot = parent_entry.slot;
  int left_slot, right_slot;
  if (slot + 1 < pcold.child_count) {
    left_slot = slot;
    right_slot = slot + 1;
  } else if (slot > 0) {
    left_slot = slot - 1;
    right_slot = slot;
  } else {
    return;  // only child — leave it
  }
  Hot& phot = inner_pool_.primary(parent);
  NodeRef left = static_cast<NodeRef>(phot.refs[left_slot]);
  NodeRef right = static_cast<NodeRef>(phot.refs[right_slot]);
  Leaf& lleaf = leaf_pool_.secondary(left);
  Leaf& rleaf = leaf_pool_.secondary(right);
  if (lleaf.info.pair_count + rleaf.info.pair_count >
      static_cast<std::uint32_t>(kLeafCap * 3 / 4)) {
    return;  // merged node would be too full; merge-only policy skips
  }

  // Move everything into `left`.
  std::vector<KeyValue<K>> all;
  all.reserve(lleaf.info.pair_count + rleaf.info.pair_count);
  for (NodeRef src : {left, right}) {
    const Leaf& s = leaf_pool_.secondary(src);
    for (int l = 0; l < Shape::kLinesPerLeaf; ++l) {
      const KeyValue<K>* lp = s.pairs + l * kPairsPerLine;
      for (int i = 0; i < kPairsPerLine && lp[i].key != kMax; ++i) {
        all.push_back(lp[i]);
      }
    }
  }
  const K merged_bound = rleaf.info.upper_bound;
  FillLeaf(left, all.data(), static_cast<int>(all.size()), merged_bound);
  lleaf.info.upper_bound = merged_bound;
  RecordModified(modified, true, left);

  // Left inherits right's separator; right's slot disappears.
  phot.keys[left_slot] = phot.keys[right_slot];
  RemoveChildAt(parent, right_slot);
  RecordModified(modified, false, parent);

  // Unchain and free the right leaf.
  if (rleaf.info.next != kNullRef) {
    leaf_pool_.secondary(rleaf.info.next).info.prev = left;
  }
  lleaf.info.next = rleaf.info.next;
  if (head_leaf_ == right) head_leaf_ = left;
  leaf_pool_.Free(right);

  MaybeMergeInner(path, static_cast<int>(path.size()) - 1, modified);
}

template <typename K>
void RegularBTree<K>::MaybeMergeInner(std::vector<PathEntry>& path, int depth,
                                      std::vector<ModifiedNode>* modified) {
  NodeRef node = path[depth].ref;
  Cold& cold = inner_pool_.secondary(node);

  if (depth == 0) {
    // Root: collapse when a single child remains.
    if (cold.child_count == 1 && root_level_ > 1) {
      NodeRef child = static_cast<NodeRef>(inner_pool_.primary(node).refs[0]);
      if (cold.level == 2) {
        leaf_pool_.secondary(child).info.parent = kNullRef;
      } else {
        inner_pool_.secondary(child).parent = kNullRef;
      }
      inner_pool_.Free(node);
      root_ = child;
      --root_level_;
    }
    return;
  }
  if (cold.child_count > kFanout / 4) return;

  PathEntry parent_entry = path[depth - 1];
  NodeRef parent = parent_entry.ref;
  Hot& phot = inner_pool_.primary(parent);
  Cold& pcold = inner_pool_.secondary(parent);
  int slot = parent_entry.slot;
  int left_slot, right_slot;
  if (slot + 1 < pcold.child_count) {
    left_slot = slot;
    right_slot = slot + 1;
  } else if (slot > 0) {
    left_slot = slot - 1;
    right_slot = slot;
  } else {
    return;
  }
  NodeRef left = static_cast<NodeRef>(phot.refs[left_slot]);
  NodeRef right = static_cast<NodeRef>(phot.refs[right_slot]);
  Hot& lhot = inner_pool_.primary(left);
  Hot& rhot = inner_pool_.primary(right);
  Cold& lcold = inner_pool_.secondary(left);
  Cold& rcold = inner_pool_.secondary(right);
  if (lcold.child_count + rcold.child_count > kFanout * 3 / 4) return;

  // Append right's children to left.
  const int base = lcold.child_count;
  for (int c = 0; c < rcold.child_count; ++c) {
    lhot.keys[base + c] = rhot.keys[c];
    lhot.refs[base + c] = rhot.refs[c];
  }
  lcold.child_count =
      static_cast<std::uint16_t>(base + rcold.child_count);
  RebuildIndexes(lhot);
  AdoptChildren(left, base, lcold.child_count);
  RecordModified(modified, false, left);

  phot.keys[left_slot] = phot.keys[right_slot];
  RemoveChildAt(parent, right_slot);
  RecordModified(modified, false, parent);

  // Unchain and free right.
  if (rcold.right_sibling != kNullRef) {
    inner_pool_.secondary(rcold.right_sibling).left_sibling = left;
  }
  lcold.right_sibling = rcold.right_sibling;
  inner_pool_.Free(right);

  MaybeMergeInner(path, depth - 1, modified);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

template <typename K>
void RegularBTree<K>::Validate() const {
  HBTREE_CHECK(root_ != kNullRef);
  std::size_t pair_total = 0;
  ValidateSubtree(root_, root_level_, kMax, &pair_total);
  HBTREE_CHECK_MSG(pair_total == size(), "size mismatch: %zu vs %zu",
                   pair_total, size());
  // Leaf chain must cover all pairs in sorted order.
  std::size_t chained = 0;
  K prev = 0;
  bool first = true;
  for (NodeRef leaf_ref = head_leaf_; leaf_ref != kNullRef;) {
    const Leaf& leaf = leaf_pool_.secondary(leaf_ref);
    std::uint32_t live = 0;
    for (int l = 0; l < Shape::kLinesPerLeaf; ++l) {
      const KeyValue<K>* lp = leaf.pairs + l * kPairsPerLine;
      for (int i = 0; i < kPairsPerLine && lp[i].key != kMax; ++i) {
        HBTREE_CHECK(first || lp[i].key > prev);
        prev = lp[i].key;
        first = false;
        ++live;
      }
    }
    HBTREE_CHECK(live == leaf.info.pair_count);
    chained += live;
    leaf_ref = leaf.info.next;
  }
  HBTREE_CHECK(chained == size_);
}

template <typename K>
void RegularBTree<K>::ValidateSubtree(NodeRef node, int level, K upper_bound,
                                      std::size_t* pair_total) const {
  if (level == 1) {
    const LastHot& hot = leaf_pool_.primary(node);
    const Leaf& leaf = leaf_pool_.secondary(node);
    HBTREE_CHECK(leaf.info.upper_bound == upper_bound);
    for (int s = 0; s < kIdx; ++s) {
      HBTREE_CHECK(hot.indexes[s] == hot.keys[s * kIdx + kIdx - 1]);
    }
    // The pin: every key the parent routes here finds a line.
    HBTREE_CHECK_MSG(hot.keys[Shape::kLinesPerLeaf - 1] >= upper_bound,
                     "big leaf %u: last separator below its bound", node);
    for (int l = 0; l < Shape::kLinesPerLeaf; ++l) {
      if (l > 0) HBTREE_CHECK(hot.keys[l - 1] <= hot.keys[l]);
      const KeyValue<K>* lp = leaf.pairs + l * kPairsPerLine;
      int live = 0;
      for (; live < kPairsPerLine && lp[live].key != kMax; ++live) {
        HBTREE_CHECK(lp[live].key <= hot.keys[l]);
        HBTREE_CHECK(l == 0 || lp[live].key > hot.keys[l - 1]);
        HBTREE_CHECK(lp[live].key <= upper_bound);
        ++*pair_total;
      }
      // A line's live pairs are a prefix: the gap follows them.
      for (int i = live; i < kPairsPerLine; ++i) {
        HBTREE_CHECK_MSG(lp[i].key == kMax,
                         "big leaf %u line %d: pair after the gap", node, l);
      }
    }
    return;
  }
  const Hot& hot = inner_pool_.primary(node);
  const Cold& cold = inner_pool_.secondary(node);
  HBTREE_CHECK(cold.level == level);
  HBTREE_CHECK(cold.child_count >= 1 &&
               cold.child_count <= kFanout);
  for (int s = 0; s < kIdx; ++s) {
    HBTREE_CHECK(hot.indexes[s] == hot.keys[s * kIdx + kIdx - 1]);
  }
  HBTREE_CHECK_MSG(hot.keys[cold.child_count - 1] >= upper_bound,
                   "inner node %u: last live separator below its bound",
                   node);
  for (int c = 0; c < cold.child_count; ++c) {
    if (c > 0) HBTREE_CHECK(hot.keys[c - 1] <= hot.keys[c]);
    HBTREE_CHECK(hot.keys[c] <= upper_bound);
    NodeRef child = static_cast<NodeRef>(hot.refs[c]);
    if (level == 2) {
      HBTREE_CHECK(leaf_pool_.secondary(child).info.parent == node);
    } else {
      HBTREE_CHECK(inner_pool_.secondary(child).parent == node);
    }
    ValidateSubtree(child, level - 1, hot.keys[c], pair_total);
  }
  for (int c = cold.child_count; c < kFanout; ++c) {
    HBTREE_CHECK(hot.keys[c] == kMax);
  }
}

}  // namespace hbtree

#endif  // HBTREE_CPUBTREE_REGULAR_BTREE_H_
