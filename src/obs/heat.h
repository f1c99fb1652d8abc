#ifndef HBTREE_OBS_HEAT_H_
#define HBTREE_OBS_HEAT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/macros.h"
#include "core/trace.h"
#include "obs/trace.h"
#include "sim/cache_sim.h"

/// Heat observability (DESIGN.md Section 13): where load lands in the
/// keyspace, in the tree levels, and in the paired memory pools.
///
/// Compile gating follows the tracing layer: the recording call sites in
/// the serving/pipeline hot paths are wrapped in HBTREE_HEAT_ONLY(...),
/// which expands to nothing unless HBTREE_OBS_HEAT=1. By default the gate
/// tracks HBTREE_OBS_TRACING, so every traced target (benches, the trace
/// tests) gets heat for free and every library default build pays zero
/// cost — not even a branch. The types below are always compiled (no
/// gated members, no ODR hazards); only the *calls* are gated.
#ifndef HBTREE_OBS_HEAT
#define HBTREE_OBS_HEAT HBTREE_OBS_TRACING
#endif

#if HBTREE_OBS_HEAT
#define HBTREE_HEAT_ONLY(...) __VA_ARGS__
#else
#define HBTREE_HEAT_ONLY(...)
#endif

namespace hbtree::obs {

// ---------------------------------------------------------------------------
// Keyspace heatmaps
// ---------------------------------------------------------------------------

/// Fixed-fanout key-range access sketch for one shard.
///
/// The shard's key range [lo, hi] is cut into `fanout` equal-width bins;
/// Record() increments one relaxed per-(bin, tenant) counter, so the
/// dispatch-path cost is one multiply and one atomic add. Counts cover
/// the sketch's whole life: nothing decays.
///
/// Per-bin totals are derived as the sum over tenants, so tenant
/// attribution always reconciles exactly with the bin count.
class KeyRangeSketch {
 public:
  struct Options {
    int fanout = 64;
    std::size_t tenants = 1;
  };

  KeyRangeSketch(std::uint64_t lo, std::uint64_t hi, const Options& options)
      : lo_(lo),
        hi_(hi),
        fanout_(options.fanout),
        tenants_(options.tenants == 0 ? 1 : options.tenants),
        counts_(static_cast<std::size_t>(fanout_) * tenants_) {
    HBTREE_CHECK(fanout_ > 0);
    HBTREE_CHECK(lo <= hi);
  }

  /// Records one access to `key` by `tenant`. Thread-safe (relaxed
  /// atomics); keys outside [lo, hi] clamp to the boundary bins.
  void Record(std::uint64_t key, std::size_t tenant = 0) {
    if (tenant >= tenants_) tenant = 0;
    counts_[static_cast<std::size_t>(BinFor(key)) * tenants_ + tenant]
        .fetch_add(1, std::memory_order_relaxed);
  }

  int BinFor(std::uint64_t key) const {
    if (key <= lo_) return 0;
    if (key >= hi_) return fanout_ - 1;
    const unsigned __int128 span =
        static_cast<unsigned __int128>(hi_ - lo_) + 1;
    return static_cast<int>(
        static_cast<unsigned __int128>(key - lo_) * fanout_ / span);
  }

  /// A consistent-enough copy of the counters (per-bin totals derived as
  /// the tenant sum, so the snapshot always reconciles internally).
  struct Snapshot {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    int fanout = 0;
    std::size_t tenants = 1;
    std::uint64_t total = 0;
    std::vector<std::uint64_t> bins;          // fanout
    std::vector<std::uint64_t> tenant_bins;   // fanout * tenants

    /// Inclusive key range covered by bin `b`.
    std::pair<std::uint64_t, std::uint64_t> BinRange(int b) const {
      const unsigned __int128 span =
          static_cast<unsigned __int128>(hi - lo) + 1;
      const std::uint64_t range_lo = static_cast<std::uint64_t>(
          lo + span * static_cast<unsigned>(b) / fanout);
      const std::uint64_t range_hi = static_cast<std::uint64_t>(
          lo + span * (static_cast<unsigned>(b) + 1) / fanout - 1);
      return {range_lo, range_hi};
    }
  };

  Snapshot TakeSnapshot() const {
    Snapshot snap;
    snap.lo = lo_;
    snap.hi = hi_;
    snap.fanout = fanout_;
    snap.tenants = tenants_;
    snap.bins.assign(static_cast<std::size_t>(fanout_), 0);
    snap.tenant_bins.resize(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const std::uint64_t v = counts_[i].load(std::memory_order_relaxed);
      snap.tenant_bins[i] = v;
      snap.bins[i / tenants_] += v;
      snap.total += v;
    }
    return snap;
  }

  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return hi_; }
  int fanout() const { return fanout_; }
  std::size_t tenants() const { return tenants_; }

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
  int fanout_;
  std::size_t tenants_;
  std::vector<std::atomic<std::uint64_t>> counts_;
};

/// One merged hot-range report entry: a sketch bin promoted to a range.
struct HeatRange {
  std::uint64_t lo = 0;   // inclusive
  std::uint64_t hi = 0;   // inclusive
  int shard = 0;
  std::uint64_t count = 0;
  double share = 0;       // count / merged total
  bool hot = false;       // share >= hot_factor / total bins
  std::vector<std::uint64_t> by_tenant;
};

/// Global keyspace heat: per-shard sketches merged into one top-K report.
struct KeyspaceHeat {
  std::uint64_t total = 0;
  int bins = 0;                  // total bins across all shards
  double hot_threshold_share = 0;
  std::vector<std::uint64_t> shard_totals;
  std::vector<HeatRange> top;    // non-increasing by count, count > 0 only
  bool empty() const { return total == 0 && top.empty(); }
};

struct MergeOptions {
  int top_k = 32;
  /// A range is flagged hot when its share exceeds `hot_factor` times the
  /// uniform expectation (1 / total bins).
  double hot_factor = 4.0;
};

/// Merges per-shard snapshots into the global top-K hot-range report.
KeyspaceHeat MergeSketches(const std::vector<KeyRangeSketch::Snapshot>& shards,
                           const MergeOptions& options = {});

// ---------------------------------------------------------------------------
// Tree-level traffic attribution
// ---------------------------------------------------------------------------

/// Modelled traffic attributed to one (level, node class) cell of one
/// pipeline stage. `hit_bytes[sim::HitLevel]` splits `bytes` by the cache
/// level that served the access, so hit_bytes sums back to bytes exactly.
struct LevelTraffic {
  int level = 0;
  int node_class = 0;  // static_cast<int>(NodeClass); kOtherClass = other
  std::uint64_t touches = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hit_bytes[4] = {0, 0, 0, 0};
};

/// Tracer that attributes every modelled memory access to the tree level
/// and node class being traversed, using a shared CacheHierarchy to model
/// which cache level serves each line.
///
/// Implements the core tracer contract plus the optional OnNodeTouch hook
/// (core/trace.h): the tree calls OnNodeTouch when it moves to a node,
/// and every subsequent OnAccess is attributed to that node's cell until
/// the next touch. Accesses before any touch (or outside a traversal) go
/// to the "other" cell, so hierarchy totals still reconcile.
///
/// Not internally synchronized: callers serialize through the owning
/// PipelineHeat's mutex (the CacheHierarchy's LRU state is mutable on
/// every access, so a shared lock would not help anyway).
class LevelHeatTracer {
 public:
  static constexpr int kMaxLevels = 12;
  static constexpr int kClasses = 3;
  static constexpr int kOtherClass = 3;
  static constexpr int kCells = kMaxLevels * kClasses + 1;

  explicit LevelHeatTracer(sim::CacheHierarchy* caches) : caches_(caches) {
    ResetRepeatMemo();
  }

  void OnQueryStart() { current_ = kCells - 1; }
  void OnQueryEnd() { current_ = kCells - 1; }

  void OnNodeTouch(int level, NodeClass cls, std::uint32_t node) {
    if (level < 0) level = 0;
    if (level >= kMaxLevels) level = kMaxLevels - 1;
    current_ = level * kClasses + static_cast<int>(cls);
    if (collapse_repeats_) {
      // Level-wise dispatch (DESIGN.md §14): consecutive queries of a
      // sorted batch that revisit the same node are one batch-level node
      // touch. Bytes still accrue per access — the cache hierarchy shows
      // the repeats as (cheap) upper-level hits.
      if (last_touch_[current_] == node) return;
      last_touch_[current_] = node;
    }
    cells_[current_].touches += 1;
  }

  /// Opt-in: collapse consecutive touches of the same node within a cell
  /// into one counted touch (per-batch attribution for sorted dispatch).
  void set_collapse_repeats(bool on) {
    collapse_repeats_ = on;
    if (!on) ResetRepeatMemo();
  }
  /// Forgets the last-node memo — call at batch boundaries so touch
  /// counts stay exactly "distinct runs per batch".
  void ResetRepeatMemo() {
    for (auto& n : last_touch_) n = kNoNode;
  }

  void OnAccess(const void* addr, std::size_t bytes) {
    const sim::HitLevel served = caches_->Access(addr);
    LevelTraffic& cell = cells_[current_];
    cell.bytes += bytes;
    cell.hit_bytes[static_cast<int>(served)] += bytes;
  }

  /// Appends every non-empty cell, with level/node_class filled in
  /// (the overflow cell reports node_class = kOtherClass, level 0).
  void Collect(std::vector<LevelTraffic>* out) const;

  /// Sum of `bytes` over all cells — equals 64 * caches->accesses() when
  /// this tracer is the hierarchy's only client.
  std::uint64_t total_bytes() const;

  void Reset() {
    for (auto& cell : cells_) cell = LevelTraffic{};
    current_ = kCells - 1;
    ResetRepeatMemo();
  }

 private:
  static constexpr std::uint64_t kNoNode = ~std::uint64_t{0};

  sim::CacheHierarchy* caches_;
  int current_ = kCells - 1;
  bool collapse_repeats_ = false;
  LevelTraffic cells_[kCells] = {};
  std::uint64_t last_touch_[kCells];  // ctor/ResetRepeatMemo fill kNoNode
};

/// Per-shard heat state for the CPU-side pipeline stages: one shared
/// modelled cache hierarchy plus one tracer per stage. Guard every use
/// (tracing and collection) with `mu` — the hierarchy mutates LRU state
/// on each access. The pipelines take the lock once per stage loop, not
/// per access, so the traced path stays cheap.
struct PipelineHeat {
  explicit PipelineHeat(std::vector<sim::CacheLevel::Config> levels)
      : caches(std::move(levels)),
        pre_descend(&caches),
        cpu_leaf(&caches),
        scan(&caches) {}

  std::mutex mu;
  sim::CacheHierarchy caches;
  LevelHeatTracer pre_descend;
  LevelHeatTracer cpu_leaf;
  LevelHeatTracer scan;

  /// Kernel-side per-batch traffic from the level-wise dispatch
  /// (DESIGN.md §14), accumulated under `mu` once per launch: distinct
  /// inner-node loads and queries resolved per tree level, plus the
  /// modelled device byte split of the launches. node_loads reconciling
  /// with "distinct start nodes per level" (not queries × levels) is the
  /// level-wise accounting invariant validate_metrics.py checks.
  std::vector<std::uint64_t> kernel_node_loads;
  std::vector<std::uint64_t> kernel_node_queries;
  std::uint64_t kernel_dram_bytes = 0;
  std::uint64_t kernel_l2_bytes = 0;
  std::uint64_t kernel_launches = 0;
};

// ---------------------------------------------------------------------------
// Memory-segment temperature
// ---------------------------------------------------------------------------

struct PoolTemperature {
  std::size_t segments = 0;
  std::size_t hot = 0;
  std::size_t warm = 0;
  std::size_t cold = 0;
  double cold_fraction = 0;  // cold / segments (0 when empty)
};

/// Touches from which a segment counts as hot.
inline constexpr std::uint64_t kHotSegmentTouches = 64;

/// Classifies pool chunks (memory segments) from one observation of
/// their cumulative touch counters, taken at the end of a run:
///  * hot  — at least kHotSegmentTouches touches;
///  * warm — touched, but fewer times;
///  * cold — never touched.
PoolTemperature ClassifySegments(const std::vector<std::uint64_t>& touches);

// ---------------------------------------------------------------------------
// Report assembly
// ---------------------------------------------------------------------------

/// Traffic of one pipeline stage, summed across shards.
struct StageHeat {
  std::string stage;
  std::vector<LevelTraffic> levels;
};

/// GPU-kernel traffic of the level-wise dispatch (DESIGN.md §14), summed
/// across shards: per tree level, the distinct nodes the launches loaded
/// and the queries they resolved, plus the modelled device byte split.
/// `node_loads[l] < node_queries[l]` is the level-wise win; equality per
/// query would mean the batch degenerated to per-query traversal.
struct KernelHeat {
  std::vector<std::uint64_t> node_loads;    // indexed by tree level
  std::vector<std::uint64_t> node_queries;  // indexed by tree level
  std::uint64_t dram_bytes = 0;
  std::uint64_t l2_bytes = 0;
  std::uint64_t launches = 0;

  bool empty() const { return node_loads.empty() && launches == 0; }
};

/// The `heat` section of an hbtree.bench.v1 report.
struct HeatSection {
  KeyspaceHeat keyspace;
  std::vector<StageHeat> stages;
  KernelHeat kernel;
  std::vector<std::pair<std::string, PoolTemperature>> pools;
  std::vector<std::string> tenant_names;

  bool empty() const {
    return keyspace.empty() && stages.empty() && kernel.empty() &&
           pools.empty();
  }
};

class JsonWriter;

/// Emits the value object for the "heat" key (callers emit the key).
void AppendHeatJson(JsonWriter& writer, const HeatSection& heat);

/// JSON key for a (level, node_class) cell: "L<level>.<class>" or "other".
std::string LevelCellName(int level, int node_class);

}  // namespace hbtree::obs

#endif  // HBTREE_OBS_HEAT_H_
