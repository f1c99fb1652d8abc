#ifndef HBTREE_HYBRID_GPU_KERNELS_H_
#define HBTREE_HYBRID_GPU_KERNELS_H_

#include <algorithm>
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
/// The kernels share their frame. `RunTeamSearch` is the warp loop: it
/// loads each team's query and start node and stores its result word, so
/// a kernel supplies only its per-level search. `GatherRuns` is the
/// run-dedup fetch (DESIGN.md §14): a team whose line equals the previous
/// team's takes it from shared memory instead of issuing a global load.
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

/// One launch of a search kernel: `count` queries in device memory, the
/// optional per-query start nodes of a partial CPU descent, and the
/// ResultWord[count] the kernel stores its results into.
struct SearchLaunch {
  gpu::DevicePtr queries;      // K[count]
  gpu::DevicePtr start_nodes;  // uint32[count]; null -> all start at root
  gpu::DevicePtr results;      // ResultWord[count]
  std::uint32_t count = 0;
};

/// The warp loop of a team search: `kTeam` threads per query, so
/// kWarpSize / kTeam queries per warp. For each warp it gathers the teams'
/// queries and start nodes (every team starts at `root` when the launch
/// has none), runs `descend(warp, teams, query, node, word)`, which must
/// fill `word[0, teams)`, and stores the result words.
template <typename K, int kTeam, typename Descend>
void RunTeamSearch(gpu::Device& device, gpu::KernelStats* stats,
                   const SearchLaunch& launch, std::uint64_t root,
                   Descend&& descend) {
  constexpr int kWarp = gpu::WarpScope::kWarpSize;
  constexpr std::uint32_t kTeamsPerWarp = kWarp / kTeam;
  for (std::uint32_t base = 0; base < launch.count; base += kTeamsPerWarp) {
    const int teams = static_cast<int>(
        std::min<std::uint32_t>(kTeamsPerWarp, launch.count - base));
    gpu::WarpScope warp(&device, stats, teams * kTeam);

    std::uint64_t offsets[kWarp];
    K query[kWarp];
    for (int t = 0; t < teams; ++t) offsets[t] = (base + t) * sizeof(K);
    warp.Gather(launch.queries, offsets, teams, query);

    std::uint64_t node[kWarp];
    if (launch.start_nodes.is_null()) {
      std::fill(node, node + teams, root);
    } else {
      std::uint32_t start[kWarp];
      for (int t = 0; t < teams; ++t) {
        offsets[t] = (base + t) * sizeof(std::uint32_t);
      }
      warp.Gather(launch.start_nodes, offsets, teams, start);
      std::copy(start, start + teams, node);
    }

    // One lane per team stores its word; consecutive 4-byte results
    // coalesce into one transaction per warp.
    ResultWord word[kWarp];
    descend(warp, teams, query, node, word);
    for (int t = 0; t < teams; ++t) {
      offsets[t] = (base + t) * sizeof(ResultWord);
    }
    warp.Scatter(launch.results, offsets, teams, word);
  }
}

/// The run carry of a level before its first team: matches no run.
inline constexpr std::uint64_t kNoRun = ~0ull;

/// The run-dedup fetch of one line per team: team t reads `team_lanes`
/// elements of T at `base + line[t]`, into `out[t * team_lanes, ...)`.
/// A team whose `run` key differs from the previous team's — `*carry` for
/// the first team, the last run of the previous warp — leads a run and
/// issues the global gather; a follower takes the leader's line from
/// shared memory, charged as one broadcast over the follower lanes.
/// Updates `*carry` and returns the number of run leaders.
template <typename T>
int GatherRuns(gpu::WarpScope& warp, gpu::DevicePtr base,
               const std::uint64_t* run, const std::uint64_t* line,
               int teams, int team_lanes, std::uint64_t* carry, T* out) {
  std::uint64_t offsets[gpu::WarpScope::kWarpSize];
  int gathered = 0;
  int leaders = 0;
  for (int t = 0; t < teams; ++t) {
    if (run[t] == (t == 0 ? *carry : run[t - 1])) continue;
    ++leaders;
    for (int lane = 0; lane < team_lanes; ++lane) {
      offsets[gathered++] = line[t] + lane * sizeof(T);
    }
  }
  *carry = run[teams - 1];
  if (gathered > 0) warp.RecordAccess(base, offsets, gathered, sizeof(T));
  const int followers = teams * team_lanes - gathered;
  if (followers > 0) warp.SharedAccessUniform(followers);
  // Followers read their leader's line, and a first-team follower the
  // previous warp's, so the view is checked over every team's line.
  const std::uint64_t last_line = *std::max_element(line, line + teams);
  const std::byte* view =
      warp.device()->HostView(base, last_line + team_lanes * sizeof(T));
  for (int t = 0; t < teams; ++t) {
    std::memcpy(&out[t * team_lanes], view + line[t],
                team_lanes * sizeof(T));
  }
  return leaders;
}

/// A team's search result (Snippet 3): the lane whose flag is 1 while its
/// left neighbour's is 0, which is the number of the team's keys smaller
/// than the query.
template <typename K>
int CountLess(const K* keys, int team, K query) {
  int result = 0;
  for (int lane = 0; lane < team; ++lane) {
    if (keys[lane] < query) ++result;
  }
  return result;
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
  int start_level = 0;  // first level the GPU searches (the tree height
                        // unless the CPU pre-descended, Section 5.5)
  int fanout = 0;       // == keys per node (hybrid layout)
  SearchLaunch launch;  // results: leaf line index
};

/// Runs the implicit inner-node search kernel (Snippet 3); returns
/// per-launch stats for the kernel cost model. Functionally computes
/// results in device memory exactly as Snippet 3 would.
///
/// Teams at the same node as the previous team (a "run") reuse the
/// leader's node line (GatherRuns); the compute side (flag exchange,
/// compare, clamp) is per query either way. Run boundaries carry across
/// warps, so the per-level node loads equal the number of runs in the
/// launch — the distinct start nodes at that level when the queries
/// arrive sorted.
template <typename K>
gpu::KernelStats RunImplicitInnerSearch(
    gpu::Device& device, const ImplicitKernelParams<K>& p) {
  gpu::KernelStats stats;
  constexpr int kTeam = KeyTraits<K>::kPerCacheLine;
  if (p.launch.count == 0) return stats;

  stats.node_loads_by_level.assign(p.start_level + 1, 0);
  stats.node_queries_by_level.assign(p.start_level + 1, 0);
  std::vector<std::uint64_t> carry(p.start_level + 1, kNoRun);
  RunTeamSearch<K, kTeam>(
      device, &stats, p.launch, /*root=*/0,
      [&](gpu::WarpScope& warp, int teams, const K* query,
          std::uint64_t* node, ResultWord* word) {
        const int lanes = teams * kTeam;
        for (int level = p.start_level; level >= 1; --level) {
          std::uint64_t line[gpu::WarpScope::kWarpSize];
          for (int t = 0; t < teams; ++t) {
            line[t] = (p.level_offsets[level] + node[t]) * kCacheLineSize;
          }
          K key[gpu::WarpScope::kWarpSize];
          const int leaders = GatherRuns(warp, p.nodes, node, line, teams,
                                         kTeam, &carry[level], key);

          // flag[threadIdx] = (teamQuery <= selfKey); write + barrier +
          // read neighbour flag + conditional result write (Snippet 3
          // lines 13-24). Every team resolves its own query.
          warp.SharedAccessUniform(lanes);  // flag store
          warp.Instruction(2);              // compare + selfFlag
          warp.SharedAccessUniform(lanes);  // neighbour flag load
          warp.Instruction(2);              // transition test + result store
          warp.Instruction(2);              // __syncthreads x2 (warp-level)
          for (int t = 0; t < teams; ++t) {
            const int result = CountLess(&key[t * kTeam], kTeam, query[t]);
            HBTREE_DCHECK(result < p.fanout);
            node[t] = std::min(node[t] * p.fanout + result,
                               p.level_alloc[level - 1] - 1);
          }
          warp.Instruction(1);  // the clamp

          stats.node_loads_by_level[level] += leaders;
          stats.node_queries_by_level[level] += teams;
        }
        for (int t = 0; t < teams; ++t) {
          word[t] = static_cast<ResultWord>(node[t]);
        }
      });
  return stats;
}

/// Launch parameters for the regular-tree inner search.
template <typename K>
struct RegularKernelParams {
  gpu::DevicePtr inner_hot;  // RegularInnerHot<K>[] indexed by pool slot
  gpu::DevicePtr last_hot;   // RegularLastInnerHot<K>[] for the last level
  NodeRef root = kNullRef;
  int start_level = 0;  // the tree height unless the CPU pre-descended
  SearchLaunch launch;  // results: PackLeafPosition
};

/// The regular kernel's result packs the leaf line into the low
/// kLeafLineBits (a big leaf has 64 lines of 64-bit keys, 256 of 32-bit
/// keys) and the last-inner node's pool slot into the other 24 bits:
/// 2^24 last-level nodes, a 9.7 GB mirror of 576-byte fragments.
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
/// one" (Section 5.3). The last level stops after the key line: its
/// fragments carry no references, so its pool has its own, smaller
/// stride.
///
/// Each of the three fetches dedupes runs (GatherRuns): the index line on
/// the node, the key line on (node, selected line) and the child ref on
/// (node, result line), so queries of one run that fall into the same key
/// line share that fetch too. Per-level node loads (the index-line
/// leaders) equal the runs of the launch at that level.
template <typename K>
gpu::KernelStats RunRegularInnerSearch(
    gpu::Device& device, const RegularKernelParams<K>& p) {
  gpu::KernelStats stats;
  using Shape = RegularShape<K>;
  constexpr int kTeam = Shape::kIdx;
  constexpr std::uint64_t kInnerBytes = sizeof(RegularInnerHot<K>);
  constexpr std::uint64_t kLastBytes = sizeof(RegularLastInnerHot<K>);
  constexpr std::uint64_t kKeysBase = Shape::kIdx * sizeof(K);
  // An inner fragment's refs follow the lines it shares with a last-level
  // fragment.
  constexpr std::uint64_t kRefsBase = kLastBytes;
  if (p.launch.count == 0) return stats;

  stats.node_loads_by_level.assign(p.start_level + 1, 0);
  stats.node_queries_by_level.assign(p.start_level + 1, 0);
  // Cross-warp run carries per level. Lines fit in 16 bits, so the packed
  // (node, line) runs can never collide with kNoRun.
  std::vector<std::uint64_t> node_carry(p.start_level + 1, kNoRun);
  std::vector<std::uint64_t> kline_carry(p.start_level + 1, kNoRun);
  std::vector<std::uint64_t> rline_carry(p.start_level + 1, kNoRun);
  RunTeamSearch<K, kTeam>(
      device, &stats, p.launch, p.root,
      [&](gpu::WarpScope& warp, int teams, const K* query,
          std::uint64_t* node, ResultWord* word) {
        constexpr int kWarp = gpu::WarpScope::kWarpSize;
        const int lanes = teams * kTeam;
        std::uint64_t run[kWarp];
        std::uint64_t line[kWarp];
        K key[kWarp];
        int s[kWarp];
        int line_result[kWarp];
        for (int level = p.start_level; level >= 1; --level) {
          const gpu::DevicePtr pool = level == 1 ? p.last_hot : p.inner_hot;
          const std::uint64_t stride = level == 1 ? kLastBytes : kInnerBytes;

          // Step 1: the index line, selecting a key line.
          for (int t = 0; t < teams; ++t) line[t] = node[t] * stride;
          const int leaders = GatherRuns(warp, pool, node, line, teams,
                                         kTeam, &node_carry[level], key);
          warp.SharedAccessUniform(lanes);
          warp.Instruction(4);
          warp.SharedAccessUniform(lanes);
          for (int t = 0; t < teams; ++t) {
            s[t] = CountLess(&key[t * kTeam], kTeam, query[t]);
            HBTREE_DCHECK(s[t] < kTeam);
          }

          // Step 2: the selected key line; sorted runs make equal
          // selections consecutive here too.
          for (int t = 0; t < teams; ++t) {
            run[t] = (node[t] << 16) | static_cast<std::uint64_t>(s[t]);
            line[t] = node[t] * stride + kKeysBase +
                      static_cast<std::uint64_t>(s[t]) * kTeam * sizeof(K);
          }
          GatherRuns(warp, pool, run, line, teams, kTeam, &kline_carry[level],
                     key);
          warp.SharedAccessUniform(lanes);
          warp.Instruction(4);
          warp.SharedAccessUniform(lanes);
          for (int t = 0; t < teams; ++t) {
            const int count_less = CountLess(&key[t * kTeam], kTeam, query[t]);
            HBTREE_DCHECK(count_less < kTeam);
            line_result[t] = s[t] * kTeam + count_less;
          }

          stats.node_loads_by_level[level] += leaders;
          stats.node_queries_by_level[level] += teams;
          if (level == 1) break;

          // Step 3: the child reference, one lane per team.
          for (int t = 0; t < teams; ++t) {
            run[t] =
                (node[t] << 16) | static_cast<std::uint64_t>(line_result[t]);
            line[t] = node[t] * stride + kRefsBase +
                      static_cast<std::uint64_t>(line_result[t]) * sizeof(K);
          }
          K child[kWarp];
          GatherRuns(warp, pool, run, line, teams, 1, &rline_carry[level],
                     child);
          warp.Instruction(1);
          for (int t = 0; t < teams; ++t) {
            node[t] = static_cast<std::uint64_t>(child[t]);
          }
        }
        for (int t = 0; t < teams; ++t) {
          word[t] = PackLeafPosition(static_cast<NodeRef>(node[t]),
                                     line_result[t]);
        }
      });
  return stats;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_GPU_KERNELS_H_
