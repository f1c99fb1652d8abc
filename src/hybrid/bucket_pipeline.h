#ifndef HBTREE_HYBRID_BUCKET_PIPELINE_H_
#define HBTREE_HYBRID_BUCKET_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/macros.h"
#include "core/status.h"
#include "core/trace.h"
#include "core/types.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "gpusim/cost_model.h"
#include "gpusim/device.h"
#include "hybrid/hb_fast.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"
#include "obs/heat.h"
#include "obs/trace.h"
#include "sim/resource.h"

namespace hbtree {

/// Bucket handling strategies evaluated in Figure 10 (Section 5.4).
enum class BucketStrategy {
  /// Load and resolve each bucket strictly in sequence (baseline).
  kSequential,
  /// CPU-GPU pipelining (Figure 5): CPU leaf search overlaps the next
  /// bucket's GPU work, but the GPU-side steps (transfer in, kernel and
  /// its result stream) of consecutive buckets share one engine.
  kPipelined,
  /// Pipelining with double buffering (Figure 6): two buffer sets let
  /// the upload overlap kernel execution on separate engines.
  kDoubleBuffered,
};

const char* BucketStrategyName(BucketStrategy s);

/// Modelled host cost of sorting keys, µs per key (~250 M keys/s radix):
/// what a sorted lookup bucket and an asynchronous update batch charge by
/// default.
inline constexpr double kSortUsPerQuery = 0.004;

/// Execution parameters for the heterogeneous search pipeline.
struct PipelineConfig {
  int bucket_size = 16 * 1024;  // M (Section 6.3 settles on 16K)
  BucketStrategy strategy = BucketStrategy::kDoubleBuffered;

  /// Modelled CPU rate for the leaf-search step, queries per µs — compute
  /// with the CPU cost model on a traced run (see bench_support).
  double cpu_queries_per_us = 1.0;

  /// Level-wise batch dispatch (DESIGN.md §14) is always on: the implicit
  /// and regular kernels resolve each run of consecutive queries sharing
  /// an inner node with one modelled node load per level, and lookups on
  /// those trees may sort their buckets by key so the runs form (decided
  /// once per run from bucket 0, see RunPipelineChecked). Results are
  /// written back in the caller's original query order.
  static constexpr bool level_wise = true;
  /// Modelled CPU cost of the bucket key sort, µs per query (charged to
  /// the pre-GPU stage of every sorted bucket).
  static constexpr double sort_us_per_query = kSortUsPerQuery;

  // -- Load balancing (Section 5.5). Defaults = all inner levels on GPU. --
  int cpu_descend_levels = 0;    // D
  double cpu_split_ratio = 1.0;  // R: fraction descending only D levels on
                                 // the CPU (the rest descends D+1)
  /// Modelled CPU cost of one inner level of descent, µs per query
  /// (fallback when the by-depth table below is empty).
  double cpu_descend_us_per_level = 0.0;
  /// Modelled CPU cost of descending exactly d levels (index d; [0] = 0).
  /// Captures that the top levels are cache-resident and cheap — the
  /// premise of the load-balancing scheme.
  std::vector<double> cpu_descend_us_by_depth;
  /// Buckets in flight: 2 normally, 3 with load balancing (Section 5.5).
  int buckets_in_flight = 2;

  // -- Fault handling (only reachable when the device has an armed
  // fault injector; see fault/fault_injector.h). --
  /// Bounded retries per transfer/kernel operation before the bucket
  /// fails with a typed Status. Each retry waits out the default
  /// fault::RetryPolicy backoff, charged to the failing step's timeline.
  int max_device_retries = 3;

  /// Model-track block this run's trace spans land on (a multiple of
  /// TraceSession::kModelTrackStride; the serving layer assigns one block
  /// per tree slot so multi-shard traces stay on separate tracks). Unused
  /// when tracing is compiled out.
  int trace_track_base = 0;

  /// Per-level traffic attribution sink (DESIGN.md Section 13). When set,
  /// the CPU-side stages (pre-descent, leaf search or range scan) run
  /// with a heat tracer under the sink's mutex, taken once per stage
  /// loop. Null (the default, and always null when heat is compiled out)
  /// runs them with a NullTracer, which compiles away.
  obs::PipelineHeat* heat = nullptr;
};

/// Aggregate result of one pipeline run.
struct PipelineStats {
  std::uint64_t queries = 0;
  double total_us = 0;
  double mqps = 0;
  double avg_latency_us = 0;
  // Average per-bucket step times of the Section 5.4 cost model.
  double t1_us = 0;   // host->device transfer
  double t2_us = 0;   // GPU inner-search kernel, result stream included
  /// Link time of the kernel's result stream into host-mapped memory. It
  /// lies inside t2 (the kernel takes K_init + max(body, stream)); no
  /// bucket waits on a separate download.
  double t3_us = 0;
  double t4_us = 0;   // CPU share (leaf search + LB descent)
  gpu::KernelStats kernel;  // aggregated over all buckets
  double gpu_busy_us = 0;
  double cpu_busy_us = 0;
  double pcie_busy_us = 0;
  // Fault-handling outcome (nonzero only with an armed injector).
  std::uint64_t transfer_retries = 0;
  std::uint64_t kernel_retries = 0;
  /// Buckets staged in key order (RunPipelineChecked): 0 when the caller
  /// does not sort, 1 for a sorted one-bucket run; in a longer run every
  /// bucket after bucket 0 when an ideal sort would have shortened the
  /// unsorted bucket 0's period, else none.
  std::uint64_t sorted_buckets = 0;
};

/// Device bytes of one in-flight bucket of `m` keys: the query keys and,
/// with load balancing (Section 5.5), a 32-bit start node per key. The
/// pipeline allocates exactly these; the serving layer reserves their
/// total per read worker. The result words live in host-mapped memory,
/// outside the device arena.
template <typename K>
struct BucketBuffers {
  std::size_t queries, start_nodes;

  BucketBuffers(std::size_t m, bool balanced)
      : queries(m * sizeof(K)),
        start_nodes(balanced ? m * sizeof(std::uint32_t) : 0) {}

  std::size_t total() const { return queries + start_nodes; }
};

namespace pipeline_internal {

/// Per-stage occupancy intervals of one scheduled bucket on the simulated
/// timeline — what the scheduler already decides internally, surfaced so
/// the trace exporter can draw each stage on its resource track and make
/// the cross-bucket overlap (or its absence, for kSequential) visible.
struct StageTimeline {
  double ready = 0;                         // the buffer set is free
  double pre_start = 0, pre_end = 0;        // CPU pre-descent (LB only)
  double h2d_start = 0, h2d_end = 0;        // T1
  double kernel_start = 0, kernel_end = 0;  // T2
  double d2h_start = 0, d2h_end = 0;        // T3, inside the kernel span
  double cpu_start = 0, cpu_end = 0;        // T4 (+ LB CPU capacity)
};

/// Job-shop scheduler over the simulated platform resources; encodes the
/// overlap rules of the three strategies and the buffer-set cycle:
/// `buckets_in_flight` buffer sets, each held by one bucket from its
/// ready time to its completion. A bucket's chain is tpre -> T1 -> T2 ->
/// T4: the kernel stores its results straight into host-mapped memory,
/// so the result stream (T3) runs on the D2H engine inside T2.
class Scheduler {
 public:
  Scheduler(BucketStrategy strategy, int buckets_in_flight)
      : strategy_(strategy), buckets_in_flight_(buckets_in_flight) {
    HBTREE_CHECK(buckets_in_flight >= 1);
  }

  /// Schedules the next bucket; returns its completion time. The bucket
  /// is ready when the bucket `buckets_in_flight` places earlier completed
  /// and freed its buffer set. `tpre` is the CPU pre-descent time (load
  /// balancing, plus the key sort; 0 otherwise). `t3` is the result
  /// stream's link time, at most `t2`: it is charged to the D2H engine
  /// and ends with the kernel. `timeline` (optional) receives the
  /// per-stage intervals the scheduler chose.
  double ScheduleBucket(double tpre, double t1, double t2, double t3,
                        double t4, StageTimeline* timeline = nullptr) {
    HBTREE_DCHECK(t3 <= t2);
    const std::size_t b = ends_.size();
    const std::size_t k = static_cast<std::size_t>(buckets_in_flight_);
    double start = b >= k ? ends_[b - k] : 0.0;
    StageTimeline tl;
    tl.ready = start;
    switch (strategy_) {
      case BucketStrategy::kSequential:
        // Nothing overlaps: chain after the previous bucket completed.
        start = std::max(start, last_end_);
        if (tpre > 0) {
          const double sp = cpu_.Acquire(start, tpre);
          tl.pre_start = sp;
          tl.pre_end = sp + tpre;
          start = sp + tpre;
        }
        tl.h2d_start = h2d_.Acquire(start, t1);
        tl.kernel_start = gpu_.Acquire(tl.h2d_start + t1, t2);
        tl.cpu_start = cpu_.Acquire(tl.kernel_start + t2, t4);
        tl.cpu_end = tl.cpu_start + t4;
        break;
      case BucketStrategy::kPipelined:
        // One GPU-side engine serializes T1+T2 across buckets; only the
        // CPU step overlaps (Figure 5). A load-balancing pre-descent
        // delays this bucket's upload (latency) but its CPU *capacity* is
        // charged together with the leaf stage: the CPU threads
        // interleave descents of future buckets with current finishes, so
        // a strict descend-then-finish ordering on one timeline would
        // falsely serialize the whole pipeline.
        tl.pre_start = start;
        tl.pre_end = start + tpre;
        tl.h2d_start = gpu_.Acquire(start + tpre, t1 + t2);
        h2d_.Acquire(tl.h2d_start, t1);  // utilization accounting
        tl.kernel_start = tl.h2d_start + t1;
        tl.cpu_start = cpu_.Acquire(tl.kernel_start + t2, t4 + tpre);
        tl.cpu_end = tl.cpu_start + t4 + tpre;
        break;
      case BucketStrategy::kDoubleBuffered:
        // Upload, kernel, and CPU each on their own engine (Figure 6).
        // Pre-descent is handled as in the pipelined case.
        tl.pre_start = start;
        tl.pre_end = start + tpre;
        tl.h2d_start = h2d_.Acquire(start + tpre, t1);
        tl.kernel_start = gpu_.Acquire(tl.h2d_start + t1, t2);
        tl.cpu_start = cpu_.Acquire(tl.kernel_start + t2, t4 + tpre);
        tl.cpu_end = tl.cpu_start + t4 + tpre;
        break;
    }
    tl.h2d_end = tl.h2d_start + t1;
    tl.kernel_end = tl.kernel_start + t2;
    // Kernels serialize and every stream ends with its kernel, so the D2H
    // engine is always free when the stream starts.
    tl.d2h_start = d2h_.Acquire(tl.kernel_end - t3, t3);
    tl.d2h_end = tl.d2h_start + t3;
    last_end_ = tl.cpu_start + t4;
    if (timeline != nullptr) *timeline = tl;
    ends_.push_back(last_end_);
    return last_end_;
  }

  /// Steady-state period of buckets with these stage times: how far apart
  /// they complete once the pipeline is full. That is the busiest engine
  /// under the overlap rules ScheduleBucket encodes, or the buffer-set
  /// cycle: a bucket holds its set through its whole chain, so with k sets
  /// buckets complete at least (tpre + t1 + t2 + t4) / k apart. With two
  /// or more sets the cycle binds only under double buffering; the other
  /// strategies' engines already serialize at least that much. The result
  /// stream lies inside t2 and never binds.
  double Period(double tpre, double t1, double t2, double t4) const {
    double engines = 0;
    switch (strategy_) {
      case BucketStrategy::kSequential:
        engines = tpre + t1 + t2 + t4;
        break;
      case BucketStrategy::kPipelined:
        engines = std::max(t1 + t2, tpre + t4);
        break;
      case BucketStrategy::kDoubleBuffered:
        engines = std::max({t1, t2, tpre + t4});
        break;
    }
    return std::max(engines, (tpre + t1 + t2 + t4) / buckets_in_flight_);
  }

  double gpu_busy() const { return gpu_.busy_time(); }
  double cpu_busy() const { return cpu_.busy_time(); }
  double pcie_busy() const { return h2d_.busy_time() + d2h_.busy_time(); }

 private:
  BucketStrategy strategy_;
  int buckets_in_flight_;
  sim::ResourceTimeline h2d_, d2h_, gpu_, cpu_;
  double last_end_ = 0;
  std::vector<double> ends_;
};

/// Tree-variant adapters: how to pre-descend on the CPU, launch the GPU
/// kernel, and finish a query (or, for the B+-trees, start its range
/// scan) from its result word. Every host step takes the stage's tracer:
/// a heat tracer, or a NullTracer that compiles away (RunStage picks one
/// per stage loop).
template <typename K>
struct ImplicitAdapter {
  using Tree = HBImplicitTree<K>;

  static int Height(const Tree& tree) { return tree.host_tree().height(); }

  template <typename Tracer>
  static std::uint64_t Descend(const Tree& tree, K query, int depth,
                               Tracer* tracer) {
    return tree.host_tree().DescendLevels(query, depth, tracer);
  }

  static gpu::KernelStats Launch(Tree& tree, gpu::DevicePtr queries,
                                 gpu::DevicePtr results, std::uint32_t count,
                                 int start_level,
                                 gpu::DevicePtr start_nodes) {
    auto params = tree.MakeKernelParams(queries, results, count, start_level,
                                        start_nodes);
    return RunImplicitInnerSearch<K>(tree.device(), params);
  }

  template <typename Tracer>
  static LookupResult<K> Finish(const Tree& tree, ResultWord word, K query,
                                Tracer* tracer) {
    return tree.host_tree().SearchLeafLine(word, query, tracer);
  }

  template <typename Tracer>
  static int Scan(const Tree& tree, ResultWord word, K first_key,
                  int max_matches, KeyValue<K>* out, Tracer* tracer) {
    return tree.host_tree().ScanLeaves(word, first_key, max_matches, out,
                                       tracer);
  }
};

template <typename K>
struct RegularAdapter {
  using Tree = HBRegularTree<K>;

  static int Height(const Tree& tree) { return tree.host_tree().height(); }

  template <typename Tracer>
  static std::uint64_t Descend(const Tree& tree, K query, int depth,
                               Tracer* tracer) {
    return tree.host_tree().DescendLevels(query, depth, tracer);
  }

  static gpu::KernelStats Launch(Tree& tree, gpu::DevicePtr queries,
                                 gpu::DevicePtr results, std::uint32_t count,
                                 int start_level,
                                 gpu::DevicePtr start_nodes) {
    auto params = tree.MakeKernelParams(queries, results, count, start_level,
                                        start_nodes);
    return RunRegularInnerSearch<K>(tree.device(), params);
  }

  /// The regular kernel's result word: (last-inner node, leaf line).
  static typename RegularBTree<K>::LeafPosition Position(ResultWord word) {
    return {UnpackLeafNode(word), UnpackLeafLine(word)};
  }

  template <typename Tracer>
  static LookupResult<K> Finish(const Tree& tree, ResultWord word, K query,
                                Tracer* tracer) {
    return tree.host_tree().SearchLeafLine(Position(word), query, tracer);
  }

  template <typename Tracer>
  static int Scan(const Tree& tree, ResultWord word, K first_key,
                  int max_matches, KeyValue<K>* out, Tracer* tracer) {
    return tree.host_tree().ScanLeaves(Position(word), first_key,
                                       max_matches, out, tracer);
  }
};

template <typename K>
struct FastAdapter {
  using Tree = HBFastTree<K>;

  static int Height(const Tree& tree) {
    return tree.host_tree().block_levels();
  }

  template <typename Tracer>
  static std::uint64_t Descend(const Tree& tree, K query, int depth,
                               Tracer* tracer) {
    return tree.host_tree().DescendBlocks(query, depth, tracer);
  }

  static gpu::KernelStats Launch(Tree& tree, gpu::DevicePtr queries,
                                 gpu::DevicePtr results, std::uint32_t count,
                                 int start_level,
                                 gpu::DevicePtr start_nodes) {
    auto params = tree.MakeKernelParams(queries, results, count, start_level,
                                        start_nodes);
    return RunFastSearch<K>(tree.device(), params);
  }

  template <typename Tracer>
  static LookupResult<K> Finish(const Tree& tree, ResultWord word, K query,
                                Tracer* tracer) {
    return tree.host_tree().VerifyAt(word, query, tracer);
  }
};

/// A heat sink's tracer for one CPU-side stage of the bucket loop.
using HeatStage = obs::LevelHeatTracer obs::PipelineHeat::*;

/// Runs one CPU stage loop, `loop(tracer)`: with the sink's `stage`
/// tracer under the sink's mutex, or with a NullTracer when the run has
/// no heat sink. The tracer is chosen once per loop, not once per query.
template <typename Loop>
void RunStage(obs::PipelineHeat* heat, HeatStage stage, Loop&& loop) {
  if (heat == nullptr) {
    NullTracer untraced;
    loop(&untraced);
    return;
  }
  std::lock_guard<std::mutex> lock(heat->mu);
  loop(&(heat->*stage));
}

/// The bucket loop every pipeline run shares (Section 5.4): per bucket of
/// M keys, an optional key sort and CPU pre-descent, T1 upload, T2 kernel,
/// then T4 = `finish(i, word, key, tracer)` for every key, where i indexes
/// `queries` in the caller's order. The kernel stores each result word
/// straight into host-mapped memory, where T4 reads it in place: the
/// result stream (T3) runs inside T2 and no bucket waits on a download.
/// With a heat sink, the pre-descent traces into its `pre_descend` stage
/// and T4 into the caller's `t4_stage`, each under the sink's mutex.
///
/// `sort` allows staging buckets in key order so the kernel's run dedup
/// fires, at `sort_us_per_query` on the CPU side. A one-bucket run sorts.
/// A longer run decides once, on fault-free periods (Scheduler::Period,
/// DESIGN.md §14): bucket 0 runs unsorted, and every later bucket sorts
/// exactly when an ideal sort of bucket 0 (kernel time 0, the sort charge
/// on the CPU stage) would have shortened bucket 0's period.
template <typename K, typename Adapter, typename Finish>
Status RunPipelineChecked(typename Adapter::Tree& tree, const K* queries,
                          std::size_t count, const PipelineConfig& config,
                          bool sort, HeatStage t4_stage, Finish&& finish,
                          PipelineStats* stats_out) {
  gpu::Device& device = tree.device();
  gpu::TransferEngine& transfer = tree.transfer();
  fault::FaultInjector* injector = device.fault_injector();
  const fault::RetryPolicy retry{config.max_device_retries};
  const int height = Adapter::Height(tree);
  // D is capped so that even the D+1 part leaves the GPU at least the
  // last inner level to search.
  const int d_levels =
      std::clamp(config.cpu_descend_levels, 0, std::max(height - 2, 0));
  const double split = std::clamp(config.cpu_split_ratio, 0.0, 1.0);
  const bool balanced = (d_levels > 0 || split < 1.0) && height >= 2;

  if (config.bucket_size <= 0) {
    return Status::InvalidArgument("bucket_size must be positive");
  }
  if (config.buckets_in_flight <= 0) {
    return Status::InvalidArgument("buckets_in_flight must be positive");
  }
  const std::uint32_t m = static_cast<std::uint32_t>(config.bucket_size);
  const BucketBuffers<K> bytes(m, balanced);
  gpu::ScopedDeviceAlloc q_dev(&device, bytes.queries);
  gpu::ScopedDeviceAlloc r_dev(&device, m * sizeof(ResultWord),
                               gpu::MemoryKind::kHostMapped);
  gpu::ScopedDeviceAlloc s_dev(&device, bytes.start_nodes);
  if (!q_dev.ok() || !r_dev.ok() || (balanced && !s_dev.ok())) {
    return Status::DeviceOom("bucket buffers do not fit in device memory");
  }
  const ResultWord* result_words = device.HostViewAs<ResultWord>(r_dev.get());

  PipelineStats& stats = *stats_out;
  stats = PipelineStats{};
  Scheduler scheduler(config.strategy, config.buckets_in_flight);
  // Model-time spans are offset by the wall time at run start so that
  // successive pipeline runs in one trace do not all stack at ts = 0.
  HBTREE_TRACE_ONLY(const double trace_base_us = obs::TraceSession::NowUs();)
  HBTREE_TRACE_SPAN_ARG("pipeline.run", "hybrid", "queries",
                        static_cast<double>(count));
  // Start-node indices travel as 32-bit values: every level a partial
  // descent can reach has fewer than 2^32 nodes.
  std::vector<std::uint32_t> start_nodes(m);
  // Sorted dispatch: per-bucket sort permutation and sorted staging
  // buffer. The device sees the sorted keys; T4 maps each result back
  // through `order` so callers keep their original query order.
  std::vector<std::uint32_t> order(sort ? m : 0);
  std::vector<K> sorted_q(sort ? m : 0);
  // Whether the buckets after the unsorted bucket 0 sort; bucket 0
  // decides it.
  const bool deciding = sort && count > m;
  bool sort_later = false;
  std::size_t buckets = 0;
  double end = 0;
  double latency_sum = 0;

  if (sort && config.heat != nullptr) {
    // The CPU-side tracers attribute per-batch (not per-query) node
    // traffic, as the kernel counts runs: consecutive same-node touches
    // collapse, and the memo resets at every bucket boundary below.
    std::lock_guard<std::mutex> lock(config.heat->mu);
    config.heat->pre_descend.set_collapse_repeats(true);
    (config.heat->*t4_stage).set_collapse_repeats(true);
  }

  for (std::size_t base = 0; base < count; base += m) {
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::min<std::size_t>(m, count - base));
    const std::size_t b = buckets++;
    const bool sorted = deciding ? sort_later : sort;
    if (sorted) ++stats.sorted_buckets;
    if (sort && config.heat != nullptr) {
      std::lock_guard<std::mutex> lock(config.heat->mu);
      config.heat->pre_descend.ResetRepeatMemo();
      (config.heat->*t4_stage).ResetRepeatMemo();
    }

    // -- Sorted dispatch: stage this bucket in sorted key order so
    // queries sharing a node form consecutive runs (ties break by index,
    // keeping the permutation deterministic).
    const K* bq = queries + base;
    if (sorted) {
      for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.begin() + n,
                [&](std::uint32_t i, std::uint32_t j) {
                  const K ki = queries[base + i];
                  const K kj = queries[base + j];
                  return ki < kj || (ki == kj && i < j);
                });
      for (std::uint32_t i = 0; i < n; ++i) {
        sorted_q[i] = queries[base + order[i]];
      }
      bq = sorted_q.data();
    }

    // -- CPU pre-descent (Section 5.5): R*n queries descend D levels, the
    // rest D+1; the kernel is launched once per part with the matching
    // start level (stats are merged, so K_init is charged once — the
    // pre-submission effect the paper exploits with 3 buckets in flight).
    double tpre = 0;
    std::uint32_t part1 = n;
    if (balanced) {
      part1 = static_cast<std::uint32_t>(n * split);
      auto descend_cost = [&config](int depth) {
        const auto& table = config.cpu_descend_us_by_depth;
        if (depth < static_cast<int>(table.size())) return table[depth];
        return depth * config.cpu_descend_us_per_level;
      };
      RunStage(config.heat, &obs::PipelineHeat::pre_descend,
               [&](auto* tracer) {
                 for (std::uint32_t i = 0; i < n; ++i) {
                   const int depth = i < part1 ? d_levels : d_levels + 1;
                   start_nodes[i] = static_cast<std::uint32_t>(
                       Adapter::Descend(tree, bq[i], depth, tracer));
                 }
               });
      tpre = part1 * descend_cost(d_levels) +
             (n - part1) * descend_cost(d_levels + 1);
    }
    if (sorted) tpre += n * config.sort_us_per_query;

    // -- T1: queries (+ start nodes) to device, one combined transfer.
    // Transient transfer faults retry with exponential backoff; the
    // modelled backoff is charged to this bucket's T1.
    std::size_t t1_bytes = n * sizeof(K);
    double backoff_us = 0;
    HBTREE_RETURN_IF_ERROR(fault::RetryTransient(
        retry,
        [&] {
          return transfer.TryCopyToDevice(q_dev.get(), bq, n * sizeof(K));
        },
        &stats.transfer_retries, &backoff_us));
    if (balanced) {
      HBTREE_RETURN_IF_ERROR(fault::RetryTransient(
          retry,
          [&] {
            return transfer.TryCopyToDevice(s_dev.get(), start_nodes.data(),
                                            n * sizeof(std::uint32_t));
          },
          &stats.transfer_retries, &backoff_us));
      t1_bytes += n * sizeof(std::uint32_t);
    }
    const double t1_fault_free = transfer.HostToDeviceUs(t1_bytes);
    const double t1 = t1_fault_free + backoff_us;

    // -- T2: kernel launch(es), each storing its result words into the
    // host-mapped buffer as it runs. A launch attempt is all-or-nothing,
    // so a retried attempt overwrites (not accumulates) the kernel stats
    // and rewrites every result: the retry covers delivery too.
    gpu::KernelStats ks;
    backoff_us = 0;
    HBTREE_RETURN_IF_ERROR(fault::RetryTransient(
        retry,
        [&]() -> Status {
          if (injector != nullptr) {
            HBTREE_RETURN_IF_ERROR(injector->Check(fault::Site::kKernel));
          }
          gpu::KernelStats attempt;
          if (!balanced) {
            attempt = Adapter::Launch(tree, q_dev.get(), r_dev.get(), n,
                                      height, gpu::DevicePtr{});
          } else {
            // Both parts of the split are contiguous slices of the
            // bucket, so each launch of a sorted bucket sees sorted keys.
            if (part1 > 0) {
              attempt += Adapter::Launch(tree, q_dev.get(), r_dev.get(),
                                         part1, height - d_levels,
                                         s_dev.get());
            }
            if (part1 < n) {
              attempt += Adapter::Launch(
                  tree, q_dev.get() + part1 * sizeof(K),
                  r_dev.get() + part1 * sizeof(ResultWord), n - part1,
                  height - d_levels - 1,
                  s_dev.get() + part1 * sizeof(std::uint32_t));
            }
          }
          ks = attempt;
          return Status::Ok();
        },
        &stats.kernel_retries, &backoff_us));
    stats.kernel += ks;
    if (config.heat != nullptr) {
      std::lock_guard<std::mutex> lock(config.heat->mu);
      obs::PipelineHeat& heat = *config.heat;
      if (ks.node_loads_by_level.size() > heat.kernel_node_loads.size()) {
        heat.kernel_node_loads.resize(ks.node_loads_by_level.size(), 0);
        heat.kernel_node_queries.resize(ks.node_loads_by_level.size(), 0);
      }
      for (std::size_t l = 0; l < ks.node_loads_by_level.size(); ++l) {
        heat.kernel_node_loads[l] += ks.node_loads_by_level[l];
        heat.kernel_node_queries[l] += ks.node_queries_by_level[l];
      }
      heat.kernel_dram_bytes += ks.dram_bytes;
      heat.kernel_l2_bytes += ks.l2_bytes;
      heat.kernel_launches += balanced && part1 > 0 && part1 < n ? 2 : 1;
    }
    const gpu::KernelTime kt =
        gpu::EstimateKernelTime(device.spec(), transfer.pcie(), ks);
    if (const gpu::Device::DeviceMetrics* m = device.metrics()) {
      m->kernel_launches->Increment();
      m->occupancy->Set(kt.occupancy);
    }
    const double t2 = kt.total_us + backoff_us;
    const double t3 = kt.stream_us;

    // -- T4: the caller's per-key finish, reading the result words in
    // place (they map back through the sort permutation when the bucket
    // was sorted). -------------------------------------------------------
    RunStage(config.heat, t4_stage, [&](auto* tracer) {
      for (std::uint32_t i = 0; i < n; ++i) {
        finish(base + (sorted ? order[i] : i), result_words[i], bq[i],
               tracer);
      }
    });
    const double t4 = n / config.cpu_queries_per_us;
    if (deciding && b == 0) {
      sort_later = scheduler.Period(tpre + n * config.sort_us_per_query,
                                    t1_fault_free, 0, t4) <
                   scheduler.Period(tpre, t1_fault_free, kt.total_us, t4);
    }

    // -- Schedule on the simulated platform -------------------------------
    StageTimeline tl;
    end = scheduler.ScheduleBucket(tpre, t1, t2, t3, t4, &tl);
    HBTREE_TRACE_ONLY(if (tpre > 0) {
      HBTREE_TRACE_MODEL_SPAN(config.trace_track_base, kTrackPreDescend,
                              "bucket.pre_descend",
                              trace_base_us + tl.pre_start,
                              tl.pre_end - tl.pre_start, "bucket",
                              static_cast<double>(b));
    })
    HBTREE_TRACE_MODEL_SPAN(config.trace_track_base, kTrackH2D, "bucket.h2d",
                            trace_base_us + tl.h2d_start,
                            tl.h2d_end - tl.h2d_start, "bucket",
                            static_cast<double>(b));
    HBTREE_TRACE_MODEL_SPAN(config.trace_track_base, kTrackKernel,
                            "bucket.kernel", trace_base_us + tl.kernel_start,
                            tl.kernel_end - tl.kernel_start, "bucket",
                            static_cast<double>(b));
    HBTREE_TRACE_MODEL_SPAN(config.trace_track_base, kTrackD2H, "bucket.d2h",
                            trace_base_us + tl.d2h_start,
                            tl.d2h_end - tl.d2h_start, "bucket",
                            static_cast<double>(b));
    HBTREE_TRACE_MODEL_SPAN(config.trace_track_base, kTrackCpuLeaf,
                            "bucket.cpu_leaf", trace_base_us + tl.cpu_start,
                            tl.cpu_end - tl.cpu_start, "bucket",
                            static_cast<double>(b));
    latency_sum += end - tl.ready;

    stats.t1_us += t1;
    stats.t2_us += t2;
    stats.t3_us += t3;
    stats.t4_us += t4 + tpre;
  }

  stats.queries = count;
  stats.total_us = end;
  stats.mqps = stats.total_us > 0 ? count / stats.total_us : 0;
  if (buckets > 0) {
    const double nb = static_cast<double>(buckets);
    stats.avg_latency_us = latency_sum / nb;
    stats.t1_us /= nb;
    stats.t2_us /= nb;
    stats.t3_us /= nb;
    stats.t4_us /= nb;
  }
  stats.gpu_busy_us = scheduler.gpu_busy();
  stats.cpu_busy_us = scheduler.cpu_busy();
  stats.pcie_busy_us = scheduler.pcie_busy();
  return Status::Ok();
}

/// Point lookups through the shared loop: T4 is the leaf search, traced
/// as the `cpu_leaf` stage.
template <typename K, typename Adapter>
Status RunLookupsChecked(typename Adapter::Tree& tree, const K* queries,
                         std::size_t count, const PipelineConfig& config,
                         bool sort, std::vector<LookupResult<K>>* results,
                         PipelineStats* stats) {
  if (results != nullptr) results->resize(count);
  return RunPipelineChecked<K, Adapter>(
      tree, queries, count, config, sort, &obs::PipelineHeat::cpu_leaf,
      [&](std::size_t i, ResultWord word, K query, auto* tracer) {
        const LookupResult<K> r = Adapter::Finish(tree, word, query, tracer);
        if (results != nullptr) (*results)[i] = r;
      },
      stats);
}

/// Unwraps the Status of a pipeline run that cannot fail: without an
/// armed fault injector, device-side failures are unreachable. Callers
/// that inject faults use the Try* entry points and handle the Status.
inline void CheckPipelineOk(const Status& status) {
  HBTREE_CHECK_MSG(status.ok(), "pipeline failed: %s",
                   status.message().c_str());
}

}  // namespace pipeline_internal

/// Fault-tolerant entry points of the heterogeneous search pipeline.
/// Device-side failures (allocation, transfer, kernel — injected via
/// fault::FaultInjector or genuine OOM) surface as a typed Status after
/// the configured bounded retries instead of aborting. On failure the
/// device buffers are released and `results` contents are unspecified;
/// the caller owns the fallback decision (the serving layer degrades to
/// the CPU-only pipelined search, Section 4.2).
///
/// Implicit and regular lookups may sort their buckets so the kernel's
/// run dedup fires (RunPipelineChecked decides once per run from bucket
/// 0); HB-FAST's block search is already layout-coalesced and its buckets
/// go unsorted.
template <typename K>
Status TryRunSearchPipeline(HBImplicitTree<K>& tree, const K* queries,
                            std::size_t count, const PipelineConfig& config,
                            std::vector<LookupResult<K>>* results,
                            PipelineStats* stats) {
  return pipeline_internal::RunLookupsChecked<
      K, pipeline_internal::ImplicitAdapter<K>>(tree, queries, count, config,
                                                /*sort=*/true, results, stats);
}

template <typename K>
Status TryRunSearchPipeline(HBRegularTree<K>& tree, const K* queries,
                            std::size_t count, const PipelineConfig& config,
                            std::vector<LookupResult<K>>* results,
                            PipelineStats* stats) {
  return pipeline_internal::RunLookupsChecked<
      K, pipeline_internal::RegularAdapter<K>>(tree, queries, count, config,
                                               /*sort=*/true, results, stats);
}

template <typename K>
Status TryRunSearchPipeline(HBFastTree<K>& tree, const K* queries,
                            std::size_t count, const PipelineConfig& config,
                            std::vector<LookupResult<K>>* results,
                            PipelineStats* stats) {
  return pipeline_internal::RunLookupsChecked<
      K, pipeline_internal::FastAdapter<K>>(tree, queries, count, config,
                                            /*sort=*/false, results, stats);
}

/// Runs the heterogeneous search pipeline: buckets go to the device, the
/// GPU kernel resolves inner nodes and stores the intermediate results
/// into host-mapped memory, and the CPU finishes in the L-segment. Fully functional — `results`
/// (optional) receives every lookup — while the returned stats carry the
/// simulated platform timing. The implicit tree's intermediate result is
/// a leaf-line index, the regular tree's packs (last inner node, leaf
/// line), and HB-FAST (Section 7 future work, see hybrid/hb_fast.h) shows
/// that any leaf-stored tree plugs into the same pipeline via an adapter.
template <typename Tree, typename K>
PipelineStats RunSearchPipeline(Tree& tree, const K* queries,
                                std::size_t count,
                                const PipelineConfig& config,
                                std::vector<LookupResult<K>>* results =
                                    nullptr) {
  PipelineStats stats;
  pipeline_internal::CheckPipelineOk(
      TryRunSearchPipeline(tree, queries, count, config, results, &stats));
  return stats;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_BUCKET_PIPELINE_H_
