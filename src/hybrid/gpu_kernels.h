#ifndef HBTREE_HYBRID_GPU_KERNELS_H_
#define HBTREE_HYBRID_GPU_KERNELS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"
#include "cpubtree/node_layout.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"

namespace hbtree {

/// GPU kernels of the HB+-tree (Section 5.3, Appendix D).
///
/// Both kernels implement the paper's parallel node search: a team of T
/// threads per query (T = 8 for 64-bit keys, 16 for 32-bit), each thread
/// comparing one key of the current node, with the team's winner found via
/// shared-memory flags — Snippet 3. They are written warp-synchronously
/// against the SIMT simulator: per-lane loops between accounting calls are
/// the lockstep execution a real warp performs, `RecordAccess` coalesces
/// the team loads into 64-byte transactions, and `SharedAccess`/
/// `Instruction` charge the flag exchange and ALU work.
///
/// Each tree has exactly one kernel, and it dedupes runs (DESIGN.md §14):
/// a team whose node at the current level equals the previous team's node
/// takes the line from shared memory instead of issuing a global load.
/// Sorted launches turn that into one load per distinct node per level
/// (the level-wise batch search of PAPERS.md mapped onto warps); on a
/// launch where no two consecutive teams share a node every team leads
/// its own run, and the kernel charges exactly what a per-query search
/// would. Whether to sort is the caller's decision.
///
/// Both kernels support the load-balancing scheme (Section 5.5): queries
/// may carry a per-query start node produced by a partial CPU descent.

/// The kernels' intermediate result, one 32-bit word per query: the
/// implicit tree's leaf-line index, the regular tree's packed (last-inner
/// node, leaf line) and HB-FAST's lower-bound position. The pipeline's
/// kernels store this word per query into host-mapped memory, so it is
/// all a bucket's result stream carries. The hybrid trees refuse, with
/// kOutOfRange, to mirror a tree whose results the word cannot address.
using ResultWord = std::uint32_t;
inline constexpr int kResultWordBits = 8 * sizeof(ResultWord);

/// Fails with kOutOfRange unless `count` distinct values (`what`: nodes,
/// leaf lines, positions) fit a result-word field of `bits` bits.
inline Status CheckResultWordField(std::uint64_t count, int bits,
                                   const char* what) {
  if (count <= (std::uint64_t{1} << bits)) return Status::Ok();
  return Status::OutOfRange(std::to_string(count) + " " + what +
                            " exceed the " + std::to_string(bits) +
                            "-bit field of the kernels' result word");
}

/// Launch parameters for the implicit-tree inner search.
template <typename K>
struct ImplicitKernelParams {
  gpu::DevicePtr nodes;  // ImplicitInnerNode<K>[], root-first by level
  /// Node offset of each level within `nodes` (host-side kernel constant,
  /// the levelOffsets array of Snippet 3), indexed by level (height..1).
  std::vector<std::uint64_t> level_offsets;
  /// Materialized node count per level (index 0 = leaf lines); child
  /// indices are clamped to it, mirroring the host-side descent.
  std::vector<std::uint64_t> level_alloc;
  int height = 0;       // inner levels in the tree
  int start_level = 0;  // first level the GPU searches (== height unless
                        // the CPU pre-descended, Section 5.5)
  int fanout = 0;       // == keys per node (hybrid layout)

  gpu::DevicePtr queries;      // K[count]
  gpu::DevicePtr start_nodes;  // uint32[count]; null -> all start at node 0
  gpu::DevicePtr results;      // ResultWord[count]: leaf line index
  std::uint32_t count = 0;
};

/// Runs the implicit inner-node search kernel (Snippet 3); returns
/// per-launch stats for the kernel cost model. Functionally computes
/// results in device memory exactly as Snippet 3 would.
///
/// Teams whose node at the current level equals the previous team's node
/// (a "run") reuse the leader's node line from shared memory instead of
/// re-issuing the global gather. The compute side (flag exchange, compare,
/// clamp) is per query either way. Run boundaries carry across warps, so
/// the per-level node loads equal the number of runs in the launch — the
/// distinct start nodes at that level when the queries arrive sorted.
template <typename K>
gpu::KernelStats RunImplicitInnerSearch(
    gpu::Device& device, const ImplicitKernelParams<K>& p) {
  gpu::KernelStats stats;
  constexpr int kTeam = KeyTraits<K>::kPerCacheLine;
  const int teams_per_warp = gpu::WarpScope::kWarpSize / kTeam;
  if (p.count == 0) return stats;

  stats.node_loads_by_level.assign(p.start_level + 1, 0);
  stats.node_queries_by_level.assign(p.start_level + 1, 0);
  // Run-leader carry across warps: the node the previous team visited at
  // each level (sorted launches make equal-node runs consecutive).
  constexpr std::uint64_t kNone = ~0ull;
  std::vector<std::uint64_t> prev_node(p.start_level + 1, kNone);

  for (std::uint32_t warp_base = 0; warp_base < p.count;
       warp_base += teams_per_warp) {
    const int teams =
        static_cast<int>(std::min<std::uint32_t>(teams_per_warp,
                                                 p.count - warp_base));
    const int lanes = teams * kTeam;
    gpu::WarpScope warp(&device, &stats, lanes);

    K team_query[gpu::WarpScope::kWarpSize];
    {
      std::uint64_t qoff[gpu::WarpScope::kWarpSize];
      for (int t = 0; t < teams; ++t) qoff[t] = (warp_base + t) * sizeof(K);
      warp.Gather(p.queries, qoff, teams, team_query);
    }

    std::uint64_t node[gpu::WarpScope::kWarpSize];
    if (p.start_nodes.is_null()) {
      for (int t = 0; t < teams; ++t) node[t] = 0;
    } else {
      std::uint64_t soff[gpu::WarpScope::kWarpSize];
      std::uint32_t start32[gpu::WarpScope::kWarpSize];
      for (int t = 0; t < teams; ++t) {
        soff[t] = (warp_base + t) * sizeof(std::uint32_t);
      }
      warp.Gather(p.start_nodes, soff, teams, start32);
      for (int t = 0; t < teams; ++t) node[t] = start32[t];
    }

    for (int level = p.start_level; level >= 1; --level) {
      // Run leaders issue the node-line gather; followers reuse it.
      std::uint64_t goff[gpu::WarpScope::kWarpSize];
      int gl = 0;
      int leaders = 0;
      for (int t = 0; t < teams; ++t) {
        const std::uint64_t prev = t == 0 ? prev_node[level] : node[t - 1];
        if (node[t] != prev) {
          ++leaders;
          const std::uint64_t node_byte =
              (p.level_offsets[level] + node[t]) * kCacheLineSize;
          for (int lane = 0; lane < kTeam; ++lane) {
            goff[gl++] = node_byte + lane * sizeof(K);
          }
        }
      }
      prev_node[level] = node[teams - 1];
      if (gl > 0) warp.RecordAccess(p.nodes, goff, gl, sizeof(K));
      const int follower_lanes = lanes - gl;
      if (follower_lanes > 0) {
        warp.SharedAccessUniform(follower_lanes);  // leader-line broadcast
      }
      // Functional node read for every team (followers take the leader's
      // line from shared memory; the broadcast above is its charge).
      K self_key[gpu::WarpScope::kWarpSize];
      for (int t = 0; t < teams; ++t) {
        const std::uint64_t node_byte =
            (p.level_offsets[level] + node[t]) * kCacheLineSize;
        std::memcpy(&self_key[t * kTeam],
                    device.HostView(p.nodes + node_byte), kTeam * sizeof(K));
      }

      // flag[threadIdx] = (teamQuery <= selfKey); write + barrier + read
      // neighbour flag + conditional result write (Snippet 3 lines 13-24).
      // Every team resolves its own query, leader or follower.
      warp.SharedAccessUniform(lanes);  // flag store
      warp.Instruction(2);              // compare + selfFlag
      warp.SharedAccessUniform(lanes);  // neighbour flag load
      warp.Instruction(2);              // transition test + result store
      warp.Instruction(2);              // __syncthreads x2 (warp-level)

      for (int t = 0; t < teams; ++t) {
        // result = the lane whose flag is 1 while its left neighbour's is
        // 0 == the number of keys smaller than the query.
        int result = 0;
        for (int lane = 0; lane < kTeam; ++lane) {
          if (self_key[t * kTeam + lane] < team_query[t]) ++result;
        }
        HBTREE_DCHECK(result < p.fanout);
        node[t] = node[t] * p.fanout + static_cast<std::uint64_t>(result);
        const std::uint64_t bound = p.level_alloc[level - 1];
        if (node[t] >= bound) node[t] = bound - 1;
      }
      warp.Instruction(1);  // the clamp

      stats.node_loads_by_level[level] += static_cast<std::uint64_t>(leaders);
      stats.node_queries_by_level[level] += static_cast<std::uint64_t>(teams);
    }

    // Scatter leaf line indices (one lane per team writes; consecutive
    // 4-byte results coalesce into one transaction per warp).
    ResultWord line[gpu::WarpScope::kWarpSize];
    std::uint64_t roff[gpu::WarpScope::kWarpSize];
    for (int t = 0; t < teams; ++t) {
      line[t] = static_cast<ResultWord>(node[t]);
      roff[t] = (warp_base + t) * sizeof(ResultWord);
    }
    warp.Scatter(p.results, roff, teams, line);
  }
  return stats;
}

/// Launch parameters for the regular-tree inner search.
template <typename K>
struct RegularKernelParams {
  gpu::DevicePtr inner_hot;  // RegularInnerHot<K>[] indexed by pool slot
  gpu::DevicePtr last_hot;   // RegularInnerHot<K>[] for the last level
  NodeRef root = kNullRef;
  int root_level = 0;   // levels counted down to 1 (last inner level)
  int start_level = 0;  // == root_level unless the CPU pre-descended

  gpu::DevicePtr queries;      // K[count]
  gpu::DevicePtr start_nodes;  // uint32[count]; null -> all start at root
  gpu::DevicePtr results;      // ResultWord[count]: PackLeafPosition
  std::uint32_t count = 0;
};

/// The regular kernel's result packs the leaf line into the low
/// kLeafLineBits (a big leaf has 64 lines of 64-bit keys, 256 of 32-bit
/// keys) and the last-inner node's pool slot into the other 24 bits:
/// 2^24 last-level nodes, an 18 GB mirror.
inline constexpr int kLeafLineBits = 8;
inline constexpr int kLeafNodeBits = kResultWordBits - kLeafLineBits;
static_assert(RegularShape<Key32>::kLinesPerLeaf <= (1 << kLeafLineBits) &&
              RegularShape<Key64>::kLinesPerLeaf <= (1 << kLeafLineBits));

inline ResultWord PackLeafPosition(NodeRef node, int line) {
  HBTREE_DCHECK(node < (ResultWord{1} << kLeafNodeBits));
  HBTREE_DCHECK(line >= 0 && line < (1 << kLeafLineBits));
  return (static_cast<ResultWord>(node) << kLeafLineBits) |
         static_cast<ResultWord>(line);
}
inline NodeRef UnpackLeafNode(ResultWord packed) {
  return static_cast<NodeRef>(packed >> kLeafLineBits);
}
inline int UnpackLeafLine(ResultWord packed) {
  return static_cast<int>(packed & ((ResultWord{1} << kLeafLineBits) - 1));
}

/// Runs the regular-tree inner search kernel: per level, the team searches
/// the index line, fetches and searches the selected key line, then one
/// lane fetches the child reference — "three memory accesses instead of
/// one" (Section 5.3).
///
/// Runs dedupe as in RunImplicitInnerSearch: the run leader issues the
/// global gathers (index line, key line, child ref); followers take the
/// lines from shared memory. Key-line and child-ref gathers additionally
/// dedupe on the selected line — queries of one run that fall into the
/// same key line share that fetch too. Per-level node loads (the
/// index-line leaders) equal the runs of the launch at that level.
template <typename K>
gpu::KernelStats RunRegularInnerSearch(
    gpu::Device& device, const RegularKernelParams<K>& p) {
  gpu::KernelStats stats;
  using Shape = RegularShape<K>;
  constexpr int kTeam = Shape::kIdx;
  const int teams_per_warp = gpu::WarpScope::kWarpSize / kTeam;
  constexpr std::uint64_t kHotBytes = sizeof(RegularInnerHot<K>);
  constexpr std::uint64_t kKeysBase = Shape::kIdx * sizeof(K);
  constexpr std::uint64_t kRefsBase =
      kKeysBase + Shape::kFanout * sizeof(K);
  if (p.count == 0) return stats;

  stats.node_loads_by_level.assign(p.start_level + 1, 0);
  stats.node_queries_by_level.assign(p.start_level + 1, 0);
  // Cross-warp run carries: previous team's node, (node, key line) and
  // (node, result line) per level. Lines fit in 16 bits, so the packed
  // carries can never collide with the ~0 sentinel.
  constexpr std::uint64_t kNone = ~0ull;
  std::vector<std::uint64_t> prev_node(p.start_level + 1, kNone);
  std::vector<std::uint64_t> prev_kline(p.start_level + 1, kNone);
  std::vector<std::uint64_t> prev_rline(p.start_level + 1, kNone);

  for (std::uint32_t warp_base = 0; warp_base < p.count;
       warp_base += teams_per_warp) {
    const int teams =
        static_cast<int>(std::min<std::uint32_t>(teams_per_warp,
                                                 p.count - warp_base));
    const int lanes = teams * kTeam;
    gpu::WarpScope warp(&device, &stats, lanes);

    K team_query[gpu::WarpScope::kWarpSize];
    {
      std::uint64_t qoff[gpu::WarpScope::kWarpSize];
      for (int t = 0; t < teams; ++t) qoff[t] = (warp_base + t) * sizeof(K);
      warp.Gather(p.queries, qoff, teams, team_query);
    }

    std::uint64_t node[gpu::WarpScope::kWarpSize];
    if (p.start_nodes.is_null()) {
      for (int t = 0; t < teams; ++t) node[t] = p.root;
    } else {
      std::uint64_t soff[gpu::WarpScope::kWarpSize];
      std::uint32_t start32[gpu::WarpScope::kWarpSize];
      for (int t = 0; t < teams; ++t) {
        soff[t] = (warp_base + t) * sizeof(std::uint32_t);
      }
      warp.Gather(p.start_nodes, soff, teams, start32);
      for (int t = 0; t < teams; ++t) node[t] = start32[t];
    }

    std::uint64_t goff[gpu::WarpScope::kWarpSize];
    K lane_key[gpu::WarpScope::kWarpSize];

    int line_result[gpu::WarpScope::kWarpSize];
    for (int level = p.start_level; level >= 1; --level) {
      const bool last = level == 1;
      const gpu::DevicePtr pool = last ? p.last_hot : p.inner_hot;

      // Step 1: index line — run leaders gather, followers broadcast.
      int gl = 0;
      int leaders = 0;
      for (int t = 0; t < teams; ++t) {
        const std::uint64_t prev = t == 0 ? prev_node[level] : node[t - 1];
        if (node[t] != prev) {
          ++leaders;
          const std::uint64_t base = node[t] * kHotBytes;
          for (int lane = 0; lane < kTeam; ++lane) {
            goff[gl++] = base + lane * sizeof(K);
          }
        }
      }
      prev_node[level] = node[teams - 1];
      if (gl > 0) warp.RecordAccess(pool, goff, gl, sizeof(K));
      if (lanes - gl > 0) warp.SharedAccessUniform(lanes - gl);
      for (int t = 0; t < teams; ++t) {
        std::memcpy(&lane_key[t * kTeam],
                    device.HostView(pool + node[t] * kHotBytes),
                    kTeam * sizeof(K));
      }
      warp.SharedAccessUniform(lanes);
      warp.Instruction(4);
      warp.SharedAccessUniform(lanes);
      int s[gpu::WarpScope::kWarpSize];
      for (int t = 0; t < teams; ++t) {
        int count_less = 0;
        for (int lane = 0; lane < kTeam; ++lane) {
          if (lane_key[t * kTeam + lane] < team_query[t]) ++count_less;
        }
        HBTREE_DCHECK(count_less < kTeam);
        s[t] = count_less;
      }

      // Step 2: key line — dedupe on (node, selected line); sorted runs
      // make equal selections consecutive here too.
      gl = 0;
      for (int t = 0; t < teams; ++t) {
        const std::uint64_t kline =
            (node[t] << 16) | static_cast<std::uint64_t>(s[t]);
        const std::uint64_t prev =
            t == 0 ? prev_kline[level]
                   : (node[t - 1] << 16) | static_cast<std::uint64_t>(s[t - 1]);
        if (kline != prev) {
          const std::uint64_t base =
              node[t] * kHotBytes + kKeysBase +
              static_cast<std::uint64_t>(s[t]) * kTeam * sizeof(K);
          for (int lane = 0; lane < kTeam; ++lane) {
            goff[gl++] = base + lane * sizeof(K);
          }
        }
      }
      prev_kline[level] = (node[teams - 1] << 16) |
                          static_cast<std::uint64_t>(s[teams - 1]);
      if (gl > 0) warp.RecordAccess(pool, goff, gl, sizeof(K));
      if (lanes - gl > 0) warp.SharedAccessUniform(lanes - gl);
      for (int t = 0; t < teams; ++t) {
        std::memcpy(&lane_key[t * kTeam],
                    device.HostView(pool + node[t] * kHotBytes + kKeysBase +
                                    static_cast<std::uint64_t>(s[t]) * kTeam *
                                        sizeof(K)),
                    kTeam * sizeof(K));
      }
      warp.SharedAccessUniform(lanes);
      warp.Instruction(4);
      warp.SharedAccessUniform(lanes);
      for (int t = 0; t < teams; ++t) {
        int count_less = 0;
        for (int lane = 0; lane < kTeam; ++lane) {
          if (lane_key[t * kTeam + lane] < team_query[t]) ++count_less;
        }
        HBTREE_DCHECK(count_less < kTeam);
        line_result[t] = s[t] * kTeam + count_less;
      }

      stats.node_loads_by_level[level] += static_cast<std::uint64_t>(leaders);
      stats.node_queries_by_level[level] += static_cast<std::uint64_t>(teams);

      if (last) break;

      // Step 3: child reference — dedupe on (node, result line).
      gl = 0;
      for (int t = 0; t < teams; ++t) {
        const std::uint64_t rline =
            (node[t] << 16) | static_cast<std::uint64_t>(line_result[t]);
        const std::uint64_t prev =
            t == 0 ? prev_rline[level]
                   : (node[t - 1] << 16) |
                         static_cast<std::uint64_t>(line_result[t - 1]);
        if (rline != prev) {
          goff[gl++] = node[t] * kHotBytes + kRefsBase +
                       static_cast<std::uint64_t>(line_result[t]) * sizeof(K);
        }
      }
      prev_rline[level] = (node[teams - 1] << 16) |
                          static_cast<std::uint64_t>(line_result[teams - 1]);
      if (gl > 0) warp.RecordAccess(pool, goff, gl, sizeof(K));
      if (teams - gl > 0) warp.SharedAccessUniform(teams - gl);
      warp.Instruction(1);
      for (int t = 0; t < teams; ++t) {
        K child_ref;
        std::memcpy(&child_ref,
                    device.HostView(pool + node[t] * kHotBytes + kRefsBase +
                                    static_cast<std::uint64_t>(line_result[t]) *
                                        sizeof(K)),
                    sizeof(K));
        node[t] = static_cast<std::uint64_t>(child_ref);
      }
    }

    ResultWord packed[gpu::WarpScope::kWarpSize];
    std::uint64_t roff[gpu::WarpScope::kWarpSize];
    for (int t = 0; t < teams; ++t) {
      packed[t] = PackLeafPosition(static_cast<NodeRef>(node[t]),
                                   line_result[t]);
      roff[t] = (warp_base + t) * sizeof(ResultWord);
    }
    warp.Scatter(p.results, roff, teams, packed);
  }
  return stats;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_GPU_KERNELS_H_
