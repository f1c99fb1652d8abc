#ifndef HBTREE_CPUBTREE_PIPELINED_SEARCH_H_
#define HBTREE_CPUBTREE_PIPELINED_SEARCH_H_

#include <cstddef>
#include <cstdint>

#include "core/macros.h"
#include "core/simd.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"

namespace hbtree {

/// Software-pipelined batch lookup (Section 4.2, Appendix B.2,
/// Algorithm 2).
///
/// Each worker processes `depth` queries concurrently: after issuing the
/// node search for query i it prefetches query i's next node and moves on
/// to query i+1, so the memory stalls of up to `depth` traversals overlap.
/// The paper finds depth 16 optimal on its hardware (Figure 20).
///
/// These routines are the *functional* fast path (no tracing); the
/// analytic throughput model treats the pipeline depth as the latency
/// overlap factor (sim::CpuExecutionParams::pipeline_depth).

#if defined(__GNUC__) || defined(__clang__)
#define HBTREE_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define HBTREE_PREFETCH(addr) ((void)(addr))
#endif

/// Batched lookup on the implicit tree. `results[i]` receives the lookup
/// for `queries[i]`.
template <typename K>
void PipelinedSearch(const ImplicitBTree<K>& tree, const K* queries,
                     std::size_t count, int depth, LookupResult<K>* results) {
  HBTREE_CHECK(depth >= 1);
  const auto* nodes = tree.i_segment_nodes();
  const auto* leaves = tree.l_segment_lines();
  const int height = tree.height();
  const int fanout = tree.fanout();
  const NodeSearchAlgo algo = tree.config().search_algo;

  // A small fixed ceiling keeps the state in registers/L1; the paper also
  // observes no gain beyond 16-32 (Figure 20).
  constexpr int kMaxDepth = 64;
  HBTREE_CHECK(depth <= kMaxDepth);
  std::uint64_t node[kMaxDepth];

  for (std::size_t base = 0; base < count; base += depth) {
    const int group =
        static_cast<int>(count - base < static_cast<std::size_t>(depth)
                             ? count - base
                             : depth);
    for (int i = 0; i < group; ++i) {
      node[i] = 0;
      HBTREE_PREFETCH(&nodes[tree.level_offset(height)]);
    }
    for (int level = height; level >= 1; --level) {
      const std::uint64_t offset = tree.level_offset(level);
      const std::uint64_t next_offset =
          level > 1 ? tree.level_offset(level - 1) : 0;
      const std::uint64_t bound = tree.level_alloc(level - 1);
      for (int i = 0; i < group; ++i) {
        const auto& nd = nodes[offset + node[i]];
        const int j = SearchCacheLine(nd.keys, queries[base + i], algo);
        node[i] = node[i] * fanout + static_cast<std::uint64_t>(j);
        if (HBTREE_UNLIKELY(node[i] >= bound)) node[i] = bound - 1;
        if (level > 1) {
          HBTREE_PREFETCH(&nodes[next_offset + node[i]]);
        } else {
          HBTREE_PREFETCH(&leaves[node[i]]);
        }
      }
    }
    for (int i = 0; i < group; ++i) {
      results[base + i] =
          tree.SearchLeafLine(node[i], queries[base + i]);
    }
  }
}

/// Batched lookup on the regular tree. The three dependent accesses per
/// level (index line, key line, ref line) are each pipelined across the
/// group; the last level has no ref line and addresses a leaf line.
template <typename K>
void PipelinedSearch(const RegularBTree<K>& tree, const K* queries,
                     std::size_t count, int depth, LookupResult<K>* results) {
  HBTREE_CHECK(depth >= 1);
  constexpr int kMaxDepth = 64;
  HBTREE_CHECK(depth >= 1 && depth <= kMaxDepth);
  constexpr int kIdx = RegularBTree<K>::kIdx;
  const NodeSearchAlgo algo = tree.config().search_algo;

  NodeRef node[kMaxDepth];
  int slot[kMaxDepth];

  for (std::size_t base = 0; base < count; base += depth) {
    const int group =
        static_cast<int>(count - base < static_cast<std::size_t>(depth)
                             ? count - base
                             : depth);
    for (int i = 0; i < group; ++i) node[i] = tree.root();
    for (int level = tree.height(); level >= 1; --level) {
      const bool last = level == 1;
      // Step 1: index lines. Both levels' fragments begin with the index
      // and key lines, so `hot` is the last-level fragment type.
      for (int i = 0; i < group; ++i) {
        const auto& hot = last ? tree.last_hot(node[i])
                               : tree.inner_hot(node[i]);
        slot[i] = SearchCacheLine(hot.indexes, queries[base + i], algo);
        HBTREE_PREFETCH(hot.keys + slot[i] * kIdx);
      }
      // Step 2: key lines (then ref lines / leaf lines).
      for (int i = 0; i < group; ++i) {
        const auto& hot = last ? tree.last_hot(node[i])
                               : tree.inner_hot(node[i]);
        const int j = SearchCacheLine(hot.keys + slot[i] * kIdx,
                                      queries[base + i], algo);
        slot[i] = slot[i] * kIdx + j;
        if (!last) {
          HBTREE_PREFETCH(tree.inner_hot(node[i]).refs + slot[i]);
        }
      }
      // Step 3: follow references (or address the leaf line directly).
      for (int i = 0; i < group; ++i) {
        if (!last) {
          const auto& hot = tree.inner_hot(node[i]);
          node[i] = static_cast<NodeRef>(hot.refs[slot[i]]);
        } else {
          HBTREE_PREFETCH(tree.big_leaf(node[i]).pairs +
                          slot[i] * RegularBTree<K>::kPairsPerLine);
        }
      }
    }
    for (int i = 0; i < group; ++i) {
      results[base + i] = tree.SearchLeafLine(
          typename RegularBTree<K>::LeafPosition{node[i], slot[i]},
          queries[base + i]);
    }
  }
}

#undef HBTREE_PREFETCH

}  // namespace hbtree

#endif  // HBTREE_CPUBTREE_PIPELINED_SEARCH_H_
