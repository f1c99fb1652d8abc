#ifndef HBTREE_SERVE_SERVER_H_
#define HBTREE_SERVE_SERVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"
#include "cpubtree/pipelined_search.h"
#include "fault/fault_injector.h"
#include "hybrid/batch_update.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_regular.h"
#include "obs/heat.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/fair_queue.h"
#include "serve/serve_stats.h"
#include "serve/snapshot.h"
#include "serve/tenant.h"
#include "sim/platform.h"

namespace hbtree::serve {

/// Default serving SLOs (see ServerOptions::slos): wall-clock read p99
/// under 200 ms with a 1% error budget, and at most 1% of admitted
/// operations shed. Deliberately loose — they are burn-rate baselines
/// for dashboards, not this host's performance envelope; benches and
/// deployments tighten them per workload.
inline std::vector<obs::SloSpec> DefaultServeSlos() {
  obs::SloSpec read_p99;
  read_p99.name = "read_p99";
  read_p99.kind = obs::SloSpec::Kind::kLatencyP99;
  read_p99.histogram = "serve.read_latency";
  read_p99.threshold_us = 200'000;
  read_p99.budget = 0.01;

  obs::SloSpec shed_ratio;
  shed_ratio.name = "shed_ratio";
  shed_ratio.kind = obs::SloSpec::Kind::kRatio;
  shed_ratio.bad_counters = {"serve.shed_reads", "serve.shed_updates"};
  shed_ratio.total_counters = {"serve.lookups",    "serve.ranges",
                               "serve.updates",    "serve.shed_reads",
                               "serve.shed_updates"};
  shed_ratio.budget = 0.01;

  return {read_p99, shed_ratio};
}

/// Per-tenant SLO targets over the `serve.tenant<T>.*` metric series:
/// for every tenant, a wall read-p99 objective against its own latency
/// histogram and a shed-ratio objective over its own shed/served
/// counters. Append these to ServerOptions::slos (alongside or instead
/// of DefaultServeSlos) so Shutdown() evaluates per-tenant budgets —
/// under overload the hostile tenant's shed SLO burns while the
/// high-priority tenant's stays green, and that asymmetry is the whole
/// QoS story in one dashboard row.
inline std::vector<obs::SloSpec> TenantServeSlos(
    const std::vector<TenantSpec>& tenants) {
  std::vector<obs::SloSpec> slos;
  slos.reserve(tenants.size() * 2);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantSpec& spec = tenants[t];
    const int id = static_cast<int>(t);
    const std::string prefix = "t" + std::to_string(t) + "_";

    obs::SloSpec p99;
    p99.name = prefix + "read_p99";
    p99.kind = obs::SloSpec::Kind::kLatencyP99;
    p99.histogram = obs::MetricsRegistry::TenantName("serve", id,
                                                     "read_latency");
    p99.threshold_us = spec.read_p99_slo_us;
    p99.budget = spec.slo_budget;
    slos.push_back(p99);

    obs::SloSpec shed;
    shed.name = prefix + "shed";
    shed.kind = obs::SloSpec::Kind::kRatio;
    shed.bad_counters = {
        obs::MetricsRegistry::TenantName("serve", id, "shed_reads"),
        obs::MetricsRegistry::TenantName("serve", id, "shed_updates")};
    shed.total_counters = {
        obs::MetricsRegistry::TenantName("serve", id, "lookups"),
        obs::MetricsRegistry::TenantName("serve", id, "ranges"),
        obs::MetricsRegistry::TenantName("serve", id, "updates"),
        obs::MetricsRegistry::TenantName("serve", id, "shed_reads"),
        obs::MetricsRegistry::TenantName("serve", id, "shed_updates")};
    shed.budget = spec.slo_budget;
    slos.push_back(shed);
  }
  return slos;
}

// -- Fixed serving policy ---------------------------------------------------

/// Batch-update method (Section 5.6). Asynchronous-parallel matches the
/// epoch-swap design: the whole batch lands in main memory, then one
/// bulk I-segment sync.
inline constexpr UpdateMethod kUpdateMethod = UpdateMethod::kAsyncParallel;

/// Scheduling niceness applied to read dispatch workers (Linux only).
/// Read workers chew through deep asynchronous client windows —
/// thousands of lookups in flight absorb a few extra milliseconds of
/// dispatch delay without any op noticing — while every millisecond the
/// update committer is preempted accrues on the wall latency of every
/// update queued behind the commit. On hosts with fewer cores than
/// serving threads, giving the bulk read dispatchers a small positive
/// nice keeps the commit path scheduled; raising one's own niceness
/// needs no privilege.
inline constexpr int kReadWorkerNice = 2;

/// How long a batcher waits for a partial bucket/batch to fill before
/// shipping it — the added latency bound under light load. Read workers
/// scale this window by num_shards: a shard sees ~1/N of the aggregate
/// arrival rate, so holding the window fixed would shrink bucket fill
/// by N and let the per-bucket kernel/transfer setup cost dominate.
/// Scaling keeps the expected fill (and the fixed-cost share per op)
/// constant while the wait stays at the single-shard dispatch interval.
inline constexpr std::chrono::microseconds kMaxBatchDelay{200};

/// Software-pipelining depth for the CPU-only degraded path (16 is the
/// paper's optimum, Figure 7).
inline constexpr int kCpuFallbackDepth = 16;

/// Serving-layer tuning knobs.
struct ServerOptions {
  /// Simulated platform each tree instance runs against (every snapshot
  /// slot gets its own device + transfer engine, so the reader's kernel
  /// launches never share mutable simulator state with the writer's
  /// I-segment syncs).
  sim::PlatformSpec platform = sim::PlatformSpec::Parse("m1");

  /// Admission bucket M (the paper settles on 16K, Section 6.3). Read
  /// buckets run the offline pipeline's shape: double buffering over two
  /// buffer sets, every inner level on the GPU.
  int bucket_size = 16 * 1024;

  /// Modelled CPU costs, from calibration (see
  /// bench_support/serve_runner.h): the leaf-search rate of a read
  /// bucket's CPU stage, queries per µs, and the single-thread cost of
  /// one update, µs. A commit models the platform's hardware threads.
  double cpu_queries_per_us = 1.0;
  double cpu_update_us = 0.15;

  /// GPU sub-buckets per admission bucket. 1 ships each admission bucket
  /// as a single pipeline bucket (no intra-dispatch overlap); >1 splits
  /// it so the double-buffered schedule overlaps consecutive sub-buckets'
  /// H2D/kernel/D2H stages within one dispatch — the paper's Fig. 10
  /// pipelining applied to serving, and what makes the overlap visible
  /// on the modelled trace tracks (--trace_out).
  int pipeline_depth = 1;

  /// Smallest sub-bucket worth a separate kernel launch. Partial
  /// admission buckets (common under sharding, where each queue sees
  /// 1/num_shards of the arrival stream) are dispatched with a reduced
  /// effective depth so the per-launch setup cost is amortized over at
  /// least this many keys — splitting a trickle bucket pipeline_depth
  /// ways would multiply the fixed cost instead of hiding it.
  int min_sub_bucket = 1024;

  /// Key-range shards. Each shard is an independent snapshot pair with
  /// its own admission queues, update worker, read workers and circuit
  /// breakers; the bootstrap key space is split into `num_shards`
  /// contiguous ranges of equal cardinality. Shards commit batches and
  /// dispatch buckets in parallel, and each shard's tree is ~1/N the
  /// size (one fewer inner level to search at sufficient N).
  int num_shards = 1;

  /// Read workers (bucket dispatchers) per shard, all drawing from the
  /// shard's read queue and dispatching against the same pinned snapshot.
  /// The shared simulated device is thread-safe (see gpusim/device.h);
  /// each in-flight bucket needs its own query/result buffers in device
  /// memory, which Create() validates up front.
  int num_read_workers = 1;

  /// Tree build configuration. Leaf slack keeps most online inserts
  /// non-structural, as the paper's update analysis assumes — and it
  /// must sit BELOW the tree's gap_spill_occupancy (0.85): at 0.7 fill
  /// every leaf cache line keeps at least one gap (2-3 of 4 pairs
  /// live), so a batched insert is usually an in-line patch of one warm
  /// line instead of a whole-leaf redistribution. 0.9 fill looked
  /// denser but started every leaf above the spill threshold, turning
  /// most line-full inserts into 256-pair rewrites.
  static constexpr double leaf_fill = 0.7;

  /// Admission-queue capacity per lane (reads / updates, per shard);
  /// producers block when a lane is full (backpressure).
  std::size_t queue_capacity = 64 * 1024;

  /// Updates per committed batch (flush threshold). Gapped leaves make
  /// small commits cheap — most ops patch a cache line in place and the
  /// mirror re-syncs only dirtied deltas — so the batch no longer needs
  /// to be huge to amortise publish cost, and a smaller flush threshold
  /// shortens the commit span an admitted update can sit behind.
  int update_batch_size = 4 * 1024;

  // -- Observability -------------------------------------------------------

  /// Service-level objectives evaluated once, over the run's lifetime
  /// metrics, at Shutdown(). Burn rates surface in ServeStats::slos and
  /// as `slo.<name>.*` registry gauges. Clear to disable them.
  std::vector<obs::SloSpec> slos = DefaultServeSlos();

  // -- Fault tolerance ----------------------------------------------------

  /// Fault-injection policy armed on each snapshot slot's device after a
  /// clean bootstrap (every slot gets a decorrelated seed). Disabled by
  /// default; arm it in fault-tolerance tests and benches.
  fault::FaultConfig fault;

  /// Bounded retries per device transfer or kernel before a read bucket
  /// counts as a GPU failure (see PipelineConfig::max_device_retries).
  int max_device_retries = 3;

  /// Circuit breaker: after this many consecutive GPU bucket failures the
  /// slot's device path opens (buckets serve CPU-only) ...
  int breaker_failure_threshold = 3;
  /// ... and every Nth bucket while open probes the device path (resync
  /// if stale, then one pipelined bucket); a successful probe closes the
  /// breaker.
  int breaker_probe_interval = 4;

  // -- Multi-tenant QoS ----------------------------------------------------

  /// Tenant topology: every request carries a TenantId indexing this
  /// vector, each tenant gets its own bounded admission lane per shard
  /// (queue_capacity each), and bucket windows drain the lanes by
  /// deficit round-robin over the weights (see FairAdmissionQueue).
  /// Empty means DefaultTenants(): one default tenant, weight 1, normal
  /// priority, blocking admission — exactly the pre-QoS single-FIFO
  /// behaviour.
  std::vector<TenantSpec> tenants;

  /// When positive, each read worker sleeps after dispatching a bucket
  /// until the bucket's wall time is at least `modelled_us x
  /// model_pacing` — serving throughput then tracks the simulated
  /// platform's capacity instead of this host's, which makes "N x
  /// capacity" overload experiments deterministic (the modelled time is
  /// deterministic; host speed is not). 0 disables pacing. The sleep
  /// happens before the bucket's futures resolve, so client-observed
  /// latency includes the modelled service time.
  double model_pacing = 0;
};

/// Result of one read operation (point lookup or range query). `status`
/// is kOk for served requests; shed or rejected requests carry
/// kDeadlineExceeded / kUnavailable / kInvalidArgument and leave the
/// payload fields empty.
template <typename K>
struct ReadResult {
  Status status = Status::Ok();
  LookupResult<K> lookup;           // valid for point lookups
  std::vector<KeyValue<K>> range;   // valid for range queries
};

/// Result of one update. `sequence` is the commit sequence number of the
/// batch that applied it within its key-range shard (valid when status is
/// kOk); sequences are monotonic per shard, not totally ordered across
/// shards.
struct UpdateResult {
  Status status = Status::Ok();
  std::uint64_t sequence = 0;
};

/// Multi-threaded serving front-end over the regular HB+-tree.
///
/// Client threads submit point lookups, range queries, and updates; each
/// request routes to the key-range shard owning its key. A shard is an
/// independent epoch-swapped snapshot pair (two full tree instances) with
/// its own admission queues, one update worker, and
/// `num_read_workers` read workers batching admitted reads into
/// pipeline-sized buckets and dispatching them through the heterogeneous
/// search pipeline. Shards share nothing but the metrics registry, so
/// they commit batches and dispatch buckets in parallel; within a shard,
/// concurrent read workers share the pinned snapshot's simulated device
/// (thread-safe, see gpusim/device.h).
///
/// Range queries resolve per-shard-snapshot consistent: the scan starts
/// in the shard owning the start key and continues into higher shards,
/// pinning each shard's snapshot as it enters — each shard's segment is
/// consistent, but a scan spanning shards may observe different commit
/// points in different shards (same contract as per-shard sequences).
///
/// Fault tolerance: device failures surface as typed Statuses from the
/// Try* pipeline entry points and are absorbed here — a per-slot circuit
/// breaker flips the bucket path to the CPU-only pipelined search after
/// repeated failures (the host tree is always complete, so degraded mode
/// loses throughput, not correctness) and periodic probes restore the GPU
/// path once the device recovers. Breaker state is per snapshot slot and
/// shared by the shard's read workers (atomics; probes take the slot's
/// exclusive lock so a resync never races an in-flight bucket). Requests
/// never abort the process and every future resolves.
///
/// Threads: any number of producers; per shard, `num_read_workers` read
/// workers and one update committer. All Submit* methods are thread-safe
/// and return futures.
template <typename K>
class Server {
 public:
  using Clock = std::chrono::steady_clock;

  /// Builds a server or reports why it cannot be built (invalid options,
  /// I-segment mirror or per-worker bucket buffers exceeding device
  /// memory) via `*status_out` — construction failures are expected
  /// operating conditions on a capacity-limited device, not programming
  /// errors, so they do not abort. Returns nullptr on failure.
  static std::unique_ptr<Server> Create(
      const ServerOptions& options,
      const std::vector<KeyValue<K>>& sorted_pairs,
      Status* status_out = nullptr) {
    std::unique_ptr<Server> server(new Server(options));
    const Status status = server->Init(sorted_pairs);
    if (status_out != nullptr) *status_out = status;
    if (!status.ok()) server.reset();
    return server;
  }

  ~Server() { Shutdown(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // -- Client API ---------------------------------------------------------

  /// Admits a point lookup on behalf of `tenant` (an index into
  /// ServerOptions::tenants; 0 is always valid). Blocks if the tenant's
  /// lane on the owning shard is full (until the deadline, if one
  /// applies) unless the tenant is configured shed_on_full. A nonzero
  /// `deadline` is the request's budget: one whose deadline passes before
  /// it is dispatched resolves with kDeadlineExceeded instead of
  /// occupying the pipeline (load shedding).
  std::future<ReadResult<K>> SubmitLookup(
      K key, std::chrono::microseconds deadline = {}, TenantId tenant = 0) {
    ReadOp op;
    op.key = key;
    op.max_matches = 0;
    op.tenant = tenant;
    return Admit(std::move(op), deadline);
  }

  /// Admits a range query for up to `max_matches` pairs with key >= key.
  /// A non-positive `max_matches` resolves the future immediately with
  /// kInvalidArgument (a malformed request must not crash the server).
  std::future<ReadResult<K>> SubmitRange(
      K key, int max_matches, std::chrono::microseconds deadline = {},
      TenantId tenant = 0) {
    ReadOp op;
    op.key = key;
    op.max_matches = max_matches;
    op.tenant = tenant;
    if (max_matches <= 0) {
      std::future<ReadResult<K>> result = op.done.get_future();
      Reject(op, Status::InvalidArgument("range max_matches must be positive"));
      return result;
    }
    return Admit(std::move(op), deadline);
  }

  /// Admits an update. On success the future carries the sequence number
  /// of the shard batch that committed it (after both snapshot instances
  /// converged); shed or rejected updates carry a non-ok status and were
  /// NOT applied.
  std::future<UpdateResult> SubmitUpdate(
      UpdateQuery<K> update, std::chrono::microseconds deadline = {},
      TenantId tenant = 0) {
    UpdateOp op;
    op.query = update;
    op.tenant = tenant;
    return Admit(std::move(op), deadline);
  }

  // Blocking conveniences.
  LookupResult<K> Lookup(K key) { return SubmitLookup(key).get().lookup; }
  std::vector<KeyValue<K>> Range(K key, int max_matches) {
    return SubmitRange(key, max_matches).get().range;
  }
  UpdateResult Update(UpdateQuery<K> update) {
    return SubmitUpdate(update).get();
  }

  // -- Introspection ------------------------------------------------------

  /// Number of update batches fully committed (both instances converged),
  /// summed over shards.
  std::uint64_t committed_batches() const {
    return committed_batches_.load(std::memory_order_acquire);
  }
  /// Sum of the shards' snapshot epochs: the number of update batches
  /// whose first (visible) application has been published. A lookup
  /// admitted after a batch's future resolved sees that batch (it routes
  /// to the shard that committed it).
  std::uint64_t epoch() const {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_) sum += shard->snapshots.epoch();
    return sum;
  }

  ServeStats Stats() const {
    ServeStats stats;
    stats.num_shards = options_.num_shards;
    stats.num_read_workers = options_.num_read_workers;
    stats.lookups = lookups_done_.value();
    stats.ranges = ranges_done_.value();
    stats.updates = updates_done_.value();
    stats.read_buckets = read_buckets_.value();
    stats.update_batches = committed_batches();
    stats.avg_bucket_fill =
        stats.read_buckets > 0
            ? static_cast<double>(stats.lookups) / stats.read_buckets
            : 0;
    stats.read_latency = read_latency_.LifetimeSummary();
    stats.update_latency = update_latency_.LifetimeSummary();
    stats.queue_wait = queue_wait_.LifetimeSummary();
    stats.wall_seconds =
        std::chrono::duration<double>(Clock::now() - started_at_).count();
    if (stats.wall_seconds > 0) {
      stats.reads_per_second =
          (stats.lookups + stats.ranges) / stats.wall_seconds;
      stats.updates_per_second = stats.updates / stats.wall_seconds;
    }
    {
      std::lock_guard<std::mutex> lock(sim_mutex_);
      stats.sim_pipeline_us = sim_pipeline_us_;
      stats.sim_update_us = sim_update_us_;
      stats.sim_sync_us = sim_sync_us_;
      stats.delta_syncs = delta_syncs_;
      stats.full_syncs = full_syncs_;
      stats.delta_sync_nodes = delta_sync_nodes_;
      stats.applied = applied_;
      stats.structural = structural_;
      stats.slos = slos_;
      // Modelled makespan: shards are independent devices, so their busy
      // times overlap; within a shard, reads and update syncs share one
      // device and are charged serially (conservative).
      for (const auto& shard : shards_) {
        stats.modelled_makespan_us =
            std::max(stats.modelled_makespan_us,
                     shard->sim_pipeline_us + shard->sim_update_us);
      }
    }
    if (stats.modelled_makespan_us > 0) {
      stats.modelled_ops_per_second =
          (stats.lookups + stats.ranges + stats.updates) * 1e6 /
          stats.modelled_makespan_us;
    }
    stats.epoch = epoch();

    stats.shed_reads = shed_reads_.value();
    stats.shed_updates = shed_updates_.value();
    stats.degraded_sheds = degraded_sheds_.value();
    stats.tenants.reserve(tenant_metrics_.size());
    for (std::size_t t = 0; t < tenant_metrics_.size(); ++t) {
      const TenantHandles& handles = tenant_metrics_[t];
      TenantServeStats tenant;
      tenant.name = tenants_[t].name;
      tenant.weight = tenants_[t].weight;
      tenant.priority = tenants_[t].priority;
      tenant.lookups = handles.lookups->value();
      tenant.ranges = handles.ranges->value();
      tenant.updates = handles.updates->value();
      tenant.shed_reads = handles.shed_reads->value();
      tenant.shed_updates = handles.shed_updates->value();
      tenant.read_latency = handles.read_latency->LifetimeSummary();
      stats.tenants.push_back(std::move(tenant));
    }
    stats.transfer_retries = transfer_retries_.value();
    stats.kernel_retries = kernel_retries_.value();
    stats.sync_retries = sync_retries_.value();
    stats.device_faults = device_faults_.value();
    stats.sync_failures = sync_failures_.value();
    stats.breaker_opens = breaker_opens_.value();
    stats.breaker_closes = breaker_closes_.value();
    stats.probe_attempts = probe_attempts_.value();
    stats.cpu_fallback_buckets = cpu_fallback_buckets_.value();
    stats.cpu_fallback_lookups = cpu_fallback_lookups_.value();
    for (const auto& shard : shards_) {
      stats.faults_injected += shard->slot_a.injector.total_injected() +
                               shard->slot_b.injector.total_injected();
    }
    return stats;
  }

  /// The server's metrics registry: every ServeStats counter above, the
  /// per-shard `serve.shard<N>.*` series, plus the device-level
  /// `gpusim.*` metrics of every snapshot slot. Hand it to
  /// obs::MetricsRegistry::ToJson for export, or CollectWindow()
  /// for interval rates.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The resolved tenant topology (ServerOptions::tenants, or the
  /// implicit single default tenant).
  const std::vector<TenantSpec>& tenants() const { return tenants_; }

  /// Assembled heat section: the shards' keyspace sketches merged into a
  /// global top-K hot-range report (with per-tenant attribution), the
  /// per-stage tree-level traffic summed across shards, and the pools'
  /// segment temperatures classified at Shutdown(). Empty when heat
  /// observability is compiled out (HBTREE_OBS_HEAT=0). Thread-safe;
  /// callable while serving, though benches collect after Shutdown() for
  /// a stable view.
  obs::HeatSection Heat() const {
    obs::HeatSection heat;
#if HBTREE_OBS_HEAT
    std::vector<obs::KeyRangeSketch::Snapshot> snaps;
    snaps.reserve(shards_.size());
    for (const auto& shard : shards_) {
      if (shard->heat_sketch != nullptr) {
        snaps.push_back(shard->heat_sketch->TakeSnapshot());
      }
    }
    heat.keyspace = obs::MergeSketches(snaps);
    heat.tenant_names.reserve(tenants_.size());
    for (const TenantSpec& spec : tenants_) {
      heat.tenant_names.push_back(spec.name);
    }

    // Stage traffic: same (level, class) cells summed across every
    // shard's tracers, one stage at a time.
    static constexpr const char* kStageNames[3] = {"pre_descend",
                                                   "cpu_leaf", "scan"};
    obs::LevelTraffic sums[3][obs::LevelHeatTracer::kCells] = {};
    for (const auto& shard : shards_) {
      if (shard->heat_pipeline == nullptr) continue;
      std::lock_guard<std::mutex> lock(shard->heat_pipeline->mu);
      const obs::LevelHeatTracer* tracers[3] = {
          &shard->heat_pipeline->pre_descend, &shard->heat_pipeline->cpu_leaf,
          &shard->heat_pipeline->scan};
      for (int s = 0; s < 3; ++s) {
        std::vector<obs::LevelTraffic> cells;
        tracers[s]->Collect(&cells);
        for (const obs::LevelTraffic& cell : cells) {
          const int idx =
              cell.node_class == obs::LevelHeatTracer::kOtherClass
                  ? obs::LevelHeatTracer::kCells - 1
                  : cell.level * obs::LevelHeatTracer::kClasses +
                        cell.node_class;
          obs::LevelTraffic& sum = sums[s][idx];
          sum.level = cell.level;
          sum.node_class = cell.node_class;
          sum.touches += cell.touches;
          sum.bytes += cell.bytes;
          for (int h = 0; h < 4; ++h) sum.hit_bytes[h] += cell.hit_bytes[h];
        }
      }
    }
    for (int s = 0; s < 3; ++s) {
      obs::StageHeat stage;
      stage.stage = kStageNames[s];
      for (const obs::LevelTraffic& cell : sums[s]) {
        if (cell.touches > 0 || cell.bytes > 0) stage.levels.push_back(cell);
      }
      if (!stage.levels.empty()) heat.stages.push_back(std::move(stage));
    }

    // Kernel-side level-wise traffic, summed across shards.
    for (const auto& shard : shards_) {
      if (shard->heat_pipeline == nullptr) continue;
      std::lock_guard<std::mutex> lock(shard->heat_pipeline->mu);
      const obs::PipelineHeat& hp = *shard->heat_pipeline;
      if (hp.kernel_node_loads.size() > heat.kernel.node_loads.size()) {
        heat.kernel.node_loads.resize(hp.kernel_node_loads.size(), 0);
        heat.kernel.node_queries.resize(hp.kernel_node_loads.size(), 0);
      }
      for (std::size_t l = 0; l < hp.kernel_node_loads.size(); ++l) {
        heat.kernel.node_loads[l] += hp.kernel_node_loads[l];
        heat.kernel.node_queries[l] += hp.kernel_node_queries[l];
      }
      heat.kernel.dram_bytes += hp.kernel_dram_bytes;
      heat.kernel.l2_bytes += hp.kernel_l2_bytes;
      heat.kernel.launches += hp.kernel_launches;
    }

    obs::PoolTemperature inner;
    obs::PoolTemperature leaf;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->heat_mutex);
      AccumulatePool(&inner, shard->pool_inner);
      AccumulatePool(&leaf, shard->pool_leaf);
    }
    if (inner.segments > 0) heat.pools.emplace_back("inner", inner);
    if (leaf.segments > 0) heat.pools.emplace_back("leaf", leaf);
#endif
    return heat;
  }

  /// Stops admission, drains every shard's lanes, and joins the workers.
  /// Safe to call more than once.
  void Shutdown() {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) return;
    for (auto& shard : shards_) {
      shard->read_queue.Close();
      shard->update_queue.Close();
    }
    for (auto& shard : shards_) {
      for (std::thread& worker : shard->read_workers) {
        if (worker.joinable()) worker.join();
      }
      if (shard->update_worker.joinable()) shard->update_worker.join();
    }
    // With the workers joined the pools are quiescent, so the segment
    // temperatures (and the mem.pool.* gauges) classify the whole run.
    HBTREE_HEAT_ONLY(ObservePoolTemperatures();)
    // The SLOs are evaluated once, over the lifetime snapshot, so
    // Stats().slos covers the whole run whatever windows a client rolled.
    std::vector<obs::SloStatus> slos =
        obs::EvaluateSlos(options_.slos, metrics_.Collect());
    for (const obs::SloStatus& slo : slos) {
      metrics_.gauge("slo." + slo.name + ".bad_fraction")
          .Set(slo.bad_fraction);
      metrics_.gauge("slo." + slo.name + ".burn").Set(slo.burn);
    }
    std::lock_guard<std::mutex> lock(sim_mutex_);
    slos_ = std::move(slos);
  }

  /// Test hook, callable after Shutdown(), the server's counterpart of
  /// HBRegularTree::MirrorMatchesHost: runs Validate() on both snapshot
  /// slots' host trees of every shard (a broken invariant aborts), and
  /// returns true when every slot whose mirror is valid matches its host
  /// tree byte for byte and both slots of each shard hold the same pair
  /// count.
  bool ValidateTrees() const {
    HBTREE_CHECK(stopped_.load());
    for (const auto& shard : shards_) {
      for (const TreeSlot* slot : {&shard->slot_a, &shard->slot_b}) {
        slot->tree.host_tree().Validate();
        if (slot->tree.mirror_valid() && !slot->tree.MirrorMatchesHost()) {
          return false;
        }
      }
      if (shard->slot_a.tree.host_tree().size() !=
          shard->slot_b.tree.host_tree().size()) {
        return false;
      }
    }
    return true;
  }

 private:
  /// One snapshot instance: a full tree with its own registry, device,
  /// transfer engine, and fault injector, so no two instances share
  /// mutable tree state (read workers of one shard share the pinned
  /// instance's thread-safe device).
  struct TreeSlot {
    PageRegistry registry;
    gpu::Device device;
    gpu::TransferEngine transfer;
    HBRegularTree<K> tree;
    fault::FaultInjector injector;

    // Circuit-breaker state, shared by the shard's read workers
    // (atomics: concurrent dispatchers may fail and probe in parallel).
    std::atomic<int> consecutive_failures{0};
    std::atomic<bool> breaker_open{false};
    std::atomic<int> buckets_since_probe{0};

    /// Probes resync the device mirror (realloc + bulk copy), which must
    /// not race another worker's in-flight GPU bucket on this slot:
    /// dispatches hold shared, probe resyncs hold exclusive.
    std::shared_mutex gpu_mutex;

    /// Model-track block this slot's pipeline spans render on (+1 keeps
    /// block 0 for un-sharded direct pipeline runs); labelled
    /// "shard<N>/slot<side>" in the trace export.
    const int track_base;

    TreeSlot(const ServerOptions& options, std::uint64_t slot_index)
        : device(options.platform.gpu),
          transfer(&device, options.platform.pcie),
          tree(MakeTreeConfig(), &registry, &device, &transfer),
          injector(SlotFaultConfig(options.fault, slot_index)),
          track_base(static_cast<int>(slot_index + 1) *
                     obs::TraceSession::kModelTrackStride) {}

    static typename HBRegularTree<K>::Config MakeTreeConfig() {
      typename HBRegularTree<K>::Config config;
      config.tree.leaf_fill = ServerOptions::leaf_fill;
      return config;
    }

    /// Decorrelates the slots' fault streams without asking callers for
    /// a seed per slot (slot_index is unique across shards: 2*shard+side).
    static fault::FaultConfig SlotFaultConfig(fault::FaultConfig config,
                                              std::uint64_t slot_index) {
      config.seed += slot_index * 7919;
      return config;
    }
  };

  struct ReadOp {
    static constexpr const char* kName = "read";
    K key;
    int max_matches = 0;  // 0 = point lookup
    TenantId tenant = 0;
    Priority priority = Priority::kNormal;  // resolved from the tenant spec
    Clock::time_point admitted;
    Clock::time_point deadline = Clock::time_point::max();
    std::promise<ReadResult<K>> done;
  };

  struct UpdateOp {
    static constexpr const char* kName = "update";
    UpdateQuery<K> query;
    TenantId tenant = 0;
    Priority priority = Priority::kNormal;
    Clock::time_point admitted;
    Clock::time_point deadline = Clock::time_point::max();
    std::promise<UpdateResult> done;
  };

  /// What a bucket dispatch reports back for latency attribution: the
  /// trace identity of its `bucket.dispatch` span (0 when tracing is off
  /// or inactive) and the modelled device time the bucket was charged —
  /// the fields tail exemplars carry (see obs::Exemplar).
  struct DispatchInfo {
    std::uint64_t span_id = 0;
    double modelled_us = 0;
    bool cpu_fallback = false;
  };

  /// Hot-path handles into the tenant's serve.tenant<T>.* metric series,
  /// bound once in Init (indexed by TenantId).
  struct TenantHandles {
    obs::Counter* lookups = nullptr;
    obs::Counter* ranges = nullptr;
    obs::Counter* updates = nullptr;
    obs::Counter* shed_reads = nullptr;
    obs::Counter* shed_updates = nullptr;
    obs::Histogram* read_latency = nullptr;
  };

  /// One key-range shard: an independent snapshot pair with its own
  /// admission lanes and workers. Shards never touch each other's trees
  /// or devices; the only cross-shard read is a range scan continuing
  /// into the next shard's pinned snapshot.
  struct Shard {
    const int index;
    FairAdmissionQueue<ReadOp> read_queue;
    FairAdmissionQueue<UpdateOp> update_queue;
    TreeSlot slot_a;
    TreeSlot slot_b;
    SnapshotPair<TreeSlot> snapshots;
    /// Per-shard commit sequence (returned to this shard's update
    /// futures).
    std::atomic<std::uint64_t> committed_batches{0};

    // Per-shard metric handles (serve.shard<N>.*), bound in Init.
    obs::Counter* read_buckets = nullptr;
    obs::Counter* update_batches = nullptr;
    obs::Counter* breaker_opens = nullptr;
    obs::Counter* shed_reads = nullptr;
    obs::Counter* shed_updates = nullptr;
    obs::Histogram* queue_wait = nullptr;

    // Modelled busy time of this shard's device (guarded by the server's
    // sim_mutex_): read-pipeline and update-path µs on the simulated
    // platform clock. Shards overlap — the serving makespan is the max
    // across shards (see ServeStats::modelled_makespan_us).
    double sim_pipeline_us = 0;
    double sim_update_us = 0;

    // Heat observability (obs/heat.h). The sketch records every
    // dispatched op's key at the admission-bucket boundary; the pipeline
    // heat state carries the per-stage level tracers and their shared
    // modelled cache hierarchy. Both stay null unless HBTREE_OBS_HEAT is
    // compiled in (Init constructs them), so the default build pays
    // nothing — not even the branch that would test the pointers.
    std::unique_ptr<obs::KeyRangeSketch> heat_sketch;
    std::unique_ptr<obs::PipelineHeat> heat_pipeline;

    // Segment temperatures, classified at Shutdown over the pinned
    // snapshot's pools; heat_mutex guards them.
    std::mutex heat_mutex;
    obs::PoolTemperature pool_inner;
    obs::PoolTemperature pool_leaf;

    std::vector<std::thread> read_workers;
    std::thread update_worker;

    Shard(const ServerOptions& options, int shard_index)
        : index(shard_index),
          read_queue(options.queue_capacity, Lanes(options)),
          update_queue(options.queue_capacity, Lanes(options)),
          slot_a(options, static_cast<std::uint64_t>(shard_index) * 2),
          slot_b(options, static_cast<std::uint64_t>(shard_index) * 2 + 1),
          snapshots(&slot_a, &slot_b) {}

    /// One admission lane per tenant, sharing the tenant's weight and
    /// full-lane policy between the read and update queues.
    static std::vector<LaneConfig> Lanes(const ServerOptions& options) {
      const std::vector<TenantSpec> tenants =
          options.tenants.empty() ? DefaultTenants() : options.tenants;
      std::vector<LaneConfig> lanes;
      lanes.reserve(tenants.size());
      for (const TenantSpec& spec : tenants) {
        lanes.push_back(LaneConfig{spec.weight, spec.shed_on_full});
      }
      return lanes;
    }
  };

  explicit Server(const ServerOptions& options) : options_(options) {}

  /// Shard owning `key`: the number of range bounds <= key.
  /// `shard_bounds_[i]` is the smallest bootstrap key of shard i+1.
  std::size_t ShardFor(K key) const {
    return static_cast<std::size_t>(
        std::upper_bound(shard_bounds_.begin(), shard_bounds_.end(), key) -
        shard_bounds_.begin());
  }

  Status Init(const std::vector<KeyValue<K>>& sorted_pairs) {
    if (options_.bucket_size <= 0) {
      return Status::InvalidArgument("bucket_size must be positive");
    }
    if (options_.pipeline_depth < 1) {
      return Status::InvalidArgument("pipeline_depth must be >= 1");
    }
    if (options_.update_batch_size <= 0) {
      return Status::InvalidArgument("update_batch_size must be positive");
    }
    if (options_.breaker_failure_threshold <= 0 ||
        options_.breaker_probe_interval <= 0) {
      return Status::InvalidArgument("breaker thresholds must be positive");
    }
    if (options_.num_shards < 1) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    if (options_.num_read_workers < 1) {
      return Status::InvalidArgument("num_read_workers must be >= 1");
    }
    tenants_ = options_.tenants.empty() ? DefaultTenants()
                                        : options_.tenants;
    for (const TenantSpec& spec : tenants_) {
      if (spec.weight < 1) {
        return Status::InvalidArgument("tenant weight must be >= 1");
      }
      if (spec.name.empty()) {
        return Status::InvalidArgument("tenant name must be non-empty");
      }
    }
    const int num_shards = options_.num_shards;
    const std::size_t n = sorted_pairs.size();
    if (num_shards > 1) {
      if (n < static_cast<std::size_t>(num_shards)) {
        return Status::InvalidArgument(
            "num_shards exceeds the bootstrap key count — every shard "
            "needs at least one key to define its range");
      }
      for (int i = 1; i < num_shards; ++i) {
        const K bound = sorted_pairs[n * static_cast<std::size_t>(i) /
                                     static_cast<std::size_t>(num_shards)]
                            .key;
        if (!shard_bounds_.empty() && !(shard_bounds_.back() < bound)) {
          return Status::InvalidArgument(
              "num_shards exceeds the distinct bootstrap keys — shard "
              "range bounds must be strictly increasing");
        }
        shard_bounds_.push_back(bound);
      }
    }

    shards_.reserve(static_cast<std::size_t>(num_shards));
    for (int i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(options_, i));
    }

    // Bootstrap is fault-free: the injectors arm only after every mirror
    // built, so an injected fault can never masquerade as "tree does not
    // fit" at startup.
    for (int i = 0; i < num_shards; ++i) {
      const std::size_t lo = n * static_cast<std::size_t>(i) /
                             static_cast<std::size_t>(num_shards);
      const std::size_t hi = n * static_cast<std::size_t>(i + 1) /
                             static_cast<std::size_t>(num_shards);
      const std::vector<KeyValue<K>> slice(sorted_pairs.begin() + lo,
                                           sorted_pairs.begin() + hi);
      Shard& shard = *shards_[i];
      HBTREE_RETURN_IF_ERROR(shard.slot_a.tree.TryBuild(slice));
      HBTREE_RETURN_IF_ERROR(shard.slot_b.tree.TryBuild(slice));
      HBTREE_RETURN_IF_ERROR(ValidateBucketBacking(shard));
    }

    for (auto& shard : shards_) {
      if (options_.fault.enabled()) {
        shard->slot_a.device.set_fault_injector(&shard->slot_a.injector);
        shard->slot_b.device.set_fault_injector(&shard->slot_b.injector);
      }
      // Every slot publishes into the server's registry: gpusim.*
      // counters aggregate across all devices.
      shard->slot_a.device.set_metrics_registry(&metrics_);
      shard->slot_b.device.set_metrics_registry(&metrics_);
      const int i = shard->index;
      shard->read_buckets = &metrics_.counter(
          obs::MetricsRegistry::ShardedName("serve", i, "read_buckets"));
      shard->update_batches = &metrics_.counter(
          obs::MetricsRegistry::ShardedName("serve", i, "update_batches"));
      shard->breaker_opens = &metrics_.counter(
          obs::MetricsRegistry::ShardedName("serve", i, "breaker_opens"));
      shard->shed_reads = &metrics_.counter(
          obs::MetricsRegistry::ShardedName("serve", i, "shed_reads"));
      shard->shed_updates = &metrics_.counter(
          obs::MetricsRegistry::ShardedName("serve", i, "shed_updates"));
      shard->queue_wait = &metrics_.histogram(
          obs::MetricsRegistry::ShardedName("serve", i, "queue_wait"));
      // Label each slot's model-track block so a multi-shard trace keeps
      // one set of resource tracks per slot instead of interleaving
      // every shard's pipeline on the shared sim.* tracks.
      HBTREE_TRACE_ONLY(obs::TraceSession::RegisterModelTrackPrefix(
                            shard->slot_a.track_base,
                            "shard" + std::to_string(i) + "/slot0");
                        obs::TraceSession::RegisterModelTrackPrefix(
                            shard->slot_b.track_base,
                            "shard" + std::to_string(i) + "/slot1");)
    }

#if HBTREE_OBS_HEAT
    // Heat state, per shard: a keyspace sketch over the shard's bootstrap
    // key range (the same split ShardFor routes by) and the pipeline-stage
    // tracers over the modelled CPU cache hierarchy. The sketch shape is
    // the obs default.
    {
      const std::uint64_t key_lo =
          n > 0 ? static_cast<std::uint64_t>(sorted_pairs.front().key) : 0;
      const std::uint64_t key_hi =
          n > 0 ? static_cast<std::uint64_t>(sorted_pairs.back().key) : 0;
      obs::KeyRangeSketch::Options sketch_options;
      sketch_options.tenants = tenants_.size();
      for (int i = 0; i < num_shards; ++i) {
        const std::uint64_t lo =
            i == 0 ? key_lo
                   : static_cast<std::uint64_t>(shard_bounds_[i - 1]);
        const std::uint64_t hi =
            i + 1 < num_shards
                ? static_cast<std::uint64_t>(shard_bounds_[i]) - 1
                : key_hi;
        shards_[static_cast<std::size_t>(i)]->heat_sketch =
            std::make_unique<obs::KeyRangeSketch>(lo, std::max(lo, hi),
                                                  sketch_options);
        shards_[static_cast<std::size_t>(i)]->heat_pipeline =
            std::make_unique<obs::PipelineHeat>(
                options_.platform.cpu.cache_levels);
      }
    }
#endif

    // Per-tenant metric series (serve.tenant<T>.*), bound before the
    // workers start so the hot paths never touch the registry maps.
    tenant_metrics_.resize(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const int id = static_cast<int>(t);
      TenantHandles& handles = tenant_metrics_[t];
      handles.lookups = &metrics_.counter(
          obs::MetricsRegistry::TenantName("serve", id, "lookups"));
      handles.ranges = &metrics_.counter(
          obs::MetricsRegistry::TenantName("serve", id, "ranges"));
      handles.updates = &metrics_.counter(
          obs::MetricsRegistry::TenantName("serve", id, "updates"));
      handles.shed_reads = &metrics_.counter(
          obs::MetricsRegistry::TenantName("serve", id, "shed_reads"));
      handles.shed_updates = &metrics_.counter(
          obs::MetricsRegistry::TenantName("serve", id, "shed_updates"));
      handles.read_latency = &metrics_.histogram(
          obs::MetricsRegistry::TenantName("serve", id, "read_latency"));
    }

    started_at_ = Clock::now();
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      for (int w = 0; w < options_.num_read_workers; ++w) {
        s->read_workers.emplace_back([this, s, w] { ReadLoop(*s, w); });
      }
      s->update_worker = std::thread([this, s] { UpdateLoop(*s); });
    }
    return Status::Ok();
  }

  /// Every concurrent dispatch needs its own query buffer in the slot's
  /// device arena, on top of the I-segment mirror Build() already placed
  /// there; result words go to host-mapped memory. Failing now with an
  /// actionable message beats degenerate serving where every bucket OOMs
  /// onto the CPU path.
  Status ValidateBucketBacking(Shard& shard) const {
    const std::size_t per_worker =
        BucketBuffers<K>(static_cast<std::size_t>(options_.bucket_size),
                         /*balanced=*/false)
            .total();
    const std::size_t need =
        per_worker * static_cast<std::size_t>(options_.num_read_workers);
    for (TreeSlot* slot : {&shard.slot_a, &shard.slot_b}) {
      const std::size_t used = slot->device.used_bytes();
      const std::size_t capacity = slot->device.capacity_bytes();
      if (used + need > capacity) {
        char msg[256];
        std::snprintf(
            msg, sizeof(msg),
            "shard %d: %d read worker(s) need %zu bytes of bucket buffers "
            "but only %zu of %zu device bytes remain after the I-segment "
            "mirror — reduce num_read_workers or bucket_size, or "
            "raise num_shards",
            shard.index, options_.num_read_workers, need, capacity - used,
            capacity);
        return Status::DeviceOom(msg);
      }
    }
    return Status::Ok();
  }

  bool ValidTenant(TenantId tenant) const {
    return tenant >= 0 &&
           static_cast<std::size_t>(tenant) < tenants_.size();
  }

  // Per-op hooks of the shared admission path: routing key, lane queue,
  // shed attribution, and the rejected result. Shed attribution is one
  // call per shed op: the global counter feeds the aggregate SLO, the
  // shard counter the imbalance view, the tenant counter the per-tenant
  // QoS view.
  static K RoutingKey(const ReadOp& op) { return op.key; }
  static K RoutingKey(const UpdateOp& op) { return op.query.pair.key; }
  static FairAdmissionQueue<ReadOp>& QueueFor(Shard& shard, const ReadOp&) {
    return shard.read_queue;
  }
  static FairAdmissionQueue<UpdateOp>& QueueFor(Shard& shard,
                                                const UpdateOp&) {
    return shard.update_queue;
  }
  void CountShed(Shard& shard, const ReadOp& op) {
    shed_reads_.Increment();
    shard.shed_reads->Increment();
    tenant_metrics_[static_cast<std::size_t>(op.tenant)].shed_reads
        ->Increment();
  }
  void CountShed(Shard& shard, const UpdateOp& op) {
    shed_updates_.Increment();
    shard.shed_updates->Increment();
    tenant_metrics_[static_cast<std::size_t>(op.tenant)].shed_updates
        ->Increment();
  }
  static void Reject(ReadOp& op, Status status) {
    ReadResult<K> rejected;
    rejected.status = std::move(status);
    op.done.set_value(std::move(rejected));
  }
  static void Reject(UpdateOp& op, Status status) {
    op.done.set_value(UpdateResult{std::move(status), 0});
  }

  /// Admits a read or update op into its tenant's lane on the owning
  /// shard, resolving its future with a typed status when it cannot be
  /// admitted (unknown tenant, shed at the door, stopped server).
  template <typename Op>
  auto Admit(Op op, std::chrono::microseconds deadline) {
    op.admitted = Clock::now();
    auto result = op.done.get_future();
    if (!ValidTenant(op.tenant)) {
      Reject(op, Status::InvalidArgument("unknown tenant id"));
      return result;
    }
    const TenantSpec& spec = tenants_[static_cast<std::size_t>(op.tenant)];
    op.priority = spec.priority;
    if (deadline.count() != 0) op.deadline = op.admitted + deadline;
    Shard& shard = *shards_[ShardFor(RoutingKey(op))];
    FairAdmissionQueue<Op>& queue = QueueFor(shard, op);
    const std::size_t lane = static_cast<std::size_t>(op.tenant);
    const bool bounded = op.deadline != Clock::time_point::max();
    // shed_on_full without a deadline also takes PushUntil: it sheds a
    // full lane immediately and admits a non-full one without waiting,
    // so the far-out limit is never actually waited on.
    const Clock::time_point limit =
        bounded ? op.deadline : op.admitted + std::chrono::hours(1);
    // Both pushes leave `op` untouched unless they admit it, so the
    // rejection branches below still own its promise.
    const PushResult pushed =
        bounded || spec.shed_on_full
            ? queue.PushUntil(lane, std::move(op), limit)
        : queue.Push(lane, std::move(op)) ? PushResult::kOk
                                          : PushResult::kClosed;
    switch (pushed) {
      case PushResult::kOk:
        break;
      case PushResult::kTimeout:
        CountShed(shard, op);
        Reject(op, Status::DeadlineExceeded(std::string(Op::kName) +
                                            " shed at admission"));
        break;
      case PushResult::kClosed:
        // Benign race with Shutdown(): reject via the future instead of
        // aborting the process.
        Reject(op, Status::Unavailable(std::string(Op::kName) +
                                       " submitted to a stopped server"));
        break;
    }
    return result;
  }

  /// Records the op's wall latency, `now - start`, with tail-exemplar
  /// capture: when tracing is compiled in and the serving span has an
  /// identity, the sample carries a link back to that span (p99+ buckets
  /// keep it; see obs::Histogram::RecordWithExemplar). Compiled-out builds
  /// record the plain sample — the hot path pays nothing for exemplars.
  /// The bucket / batch completion loops resolve every op in one pass, so
  /// they pass one Clock::now() per loop.
  void RecordLatencyWithExemplar(obs::Histogram* histogram,
                                 Clock::time_point start, Clock::time_point now,
                                 int shard_index, std::uint64_t span_id,
                                 double modelled_us) {
    const std::uint64_t ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
            .count());
#if HBTREE_OBS_TRACING
    if (span_id != 0) {
      obs::Exemplar exemplar;
      exemplar.trace_id = obs::TraceSession::trace_id();
      exemplar.span_id = span_id;
      exemplar.shard = shard_index;
      exemplar.modelled_us = modelled_us;
      histogram->RecordWithExemplar(ns, exemplar);
      return;
    }
#else
    (void)shard_index;
    (void)span_id;
    (void)modelled_us;
#endif
    histogram->Record(ns);
  }

  // -- Circuit breaker (shared by a shard's read workers) ------------------

  void OpenBreaker(Shard& shard, TreeSlot& slot) {
    // exchange: concurrent workers hitting the threshold together open
    // the breaker (and count the open) exactly once.
    if (slot.breaker_open.exchange(true, std::memory_order_relaxed)) return;
    slot.buckets_since_probe.store(0, std::memory_order_relaxed);
    breaker_opens_.Increment();
    shard.breaker_opens->Increment();
    HBTREE_TRACE_INSTANT("breaker.open", "serve");
  }

  void CloseBreaker(TreeSlot& slot) {
    if (!slot.breaker_open.exchange(false, std::memory_order_relaxed)) return;
    slot.consecutive_failures.store(0, std::memory_order_relaxed);
    breaker_closes_.Increment();
    HBTREE_TRACE_INSTANT("breaker.close", "serve");
  }

  /// One GPU bucket through the fault-tolerant pipeline; false on a
  /// terminal device failure (results are then unreliable and the caller
  /// must re-serve the bucket on the CPU).
  bool TryGpuBucket(Shard& shard, TreeSlot& slot, const std::vector<K>& keys,
                    std::vector<LookupResult<K>>* results,
                    DispatchInfo* info) {
    PipelineStats ps;
    PipelineConfig config;
    config.cpu_queries_per_us = options_.cpu_queries_per_us;
    config.max_device_retries = options_.max_device_retries;
    HBTREE_TRACE_ONLY(config.trace_track_base = slot.track_base;)
    // Tree-level traffic attribution: the pipeline's CPU stages trace
    // their node touches and modelled accesses into the shard's heat
    // tracers (one mutex acquisition per stage loop, see PipelineHeat).
    HBTREE_HEAT_ONLY(config.heat = shard.heat_pipeline.get();)
    // Effective depth shrinks for partial buckets so each sub-bucket keeps
    // at least min_sub_bucket keys (per-launch setup does not amortize
    // below that); full buckets still split pipeline_depth ways.
    const int depth = std::clamp(
        static_cast<int>(keys.size() /
                         std::max(1, options_.min_sub_bucket)),
        1, std::max(1, options_.pipeline_depth));
    if (depth > 1) {
      // Split the batch actually dispatched, not the configured bucket
      // size: partial admission buckets (shipped by kMaxBatchDelay)
      // would otherwise fit in one sub-bucket and lose the overlap.
      const int target = static_cast<int>(
          (keys.size() + static_cast<std::size_t>(depth) - 1) /
          static_cast<std::size_t>(depth));
      config.bucket_size =
          std::max(1, std::min(options_.bucket_size, target));
    } else {
      config.bucket_size = std::max(
          1, std::min(options_.bucket_size, static_cast<int>(keys.size())));
    }
    const Status status =
        TryRunSearchPipeline(slot.tree, keys.data(), keys.size(),
                             config, results, &ps);
    transfer_retries_.Add(ps.transfer_retries);
    kernel_retries_.Add(ps.kernel_retries);
    if (!status.ok()) return false;
    if (info != nullptr) info->modelled_us = ps.total_us;
    std::lock_guard<std::mutex> lock(sim_mutex_);
    sim_pipeline_us_ += ps.total_us;
    shard.sim_pipeline_us += ps.total_us;
    return true;
  }

  /// Recovery probe: resync the mirror if stale, then run this bucket
  /// through the GPU path. The probe is not wasted work — on success its
  /// results serve the bucket. Caller holds the slot's exclusive lock.
  bool ProbeSlot(Shard& shard, TreeSlot& slot, const std::vector<K>& keys,
                 std::vector<LookupResult<K>>* results, DispatchInfo* info) {
    probe_attempts_.Increment();
    HBTREE_TRACE_INSTANT("breaker.probe", "serve");
    if (!slot.tree.mirror_valid() &&
        !slot.tree.TrySyncISegment().ok()) {
      return false;
    }
    return TryGpuBucket(shard, slot, keys, results, info);
  }

  /// Serves one bucket of point lookups, always filling `results`: the
  /// GPU pipeline when the slot's breaker is closed and its mirror is
  /// fresh, the CPU-only pipelined search otherwise. Correctness rule: a
  /// stale mirror (failed sync) must never serve GPU lookups — it would
  /// silently return pre-update results.
  void DispatchBucket(Shard& shard, TreeSlot& slot,
                      const std::vector<K>& keys,
                      std::vector<LookupResult<K>>* results,
                      DispatchInfo* info = nullptr) {
    // An identified span (not the plain macro): the ops this bucket
    // serves attach tail exemplars pointing at its span_id.
    HBTREE_TRACE_ONLY(
        obs::ScopedSpan dispatch_span("bucket.dispatch", "serve", "keys",
                                      static_cast<double>(keys.size()));
        if (info != nullptr) info->span_id = dispatch_span.EnsureSpanId();)
    if (!slot.breaker_open.load(std::memory_order_relaxed) &&
        !slot.tree.mirror_valid()) {
      OpenBreaker(shard, slot);
    }

    if (!slot.breaker_open.load(std::memory_order_relaxed)) {
      bool ok;
      {
        std::shared_lock<std::shared_mutex> lock(slot.gpu_mutex);
        ok = TryGpuBucket(shard, slot, keys, results, info);
      }
      if (ok) {
        slot.consecutive_failures.store(0, std::memory_order_relaxed);
        return;
      }
      device_faults_.Increment();
      if (slot.consecutive_failures.fetch_add(1, std::memory_order_relaxed) +
              1 >=
          options_.breaker_failure_threshold) {
        OpenBreaker(shard, slot);
      }
    } else if ((slot.buckets_since_probe.fetch_add(
                    1, std::memory_order_relaxed) +
                1) %
                   options_.breaker_probe_interval ==
               0) {
      // Every Nth open bucket probes. The counter is monotonic (no reset
      // on probe) so concurrent workers keep the modulo cadence without a
      // CAS loop; OpenBreaker zeroes it on the open transition.
      std::unique_lock<std::shared_mutex> lock(slot.gpu_mutex);
      if (ProbeSlot(shard, slot, keys, results, info)) {
        CloseBreaker(slot);
        return;
      }
    }

    // Degraded mode: the host tree is complete, so the software-pipelined
    // CPU search answers the bucket exactly — reduced throughput, same
    // results.
    PipelinedSearch(slot.tree.host_tree(), keys.data(), keys.size(),
                    kCpuFallbackDepth, results->data());
    cpu_fallback_buckets_.Increment();
    cpu_fallback_lookups_.Add(keys.size());
    if (info != nullptr) info->cpu_fallback = true;
  }

  /// Appends up to `max_matches` pairs with key >= `key` from `shard`'s
  /// pinned `slot` to `out`; returns the number appended. The reply grows
  /// by at most the slot's pair count, so a range larger than the tree
  /// never allocates more than the tree holds. With heat compiled in,
  /// descent and leaf-chain touches land in the shard's `scan` stage
  /// tracer under its heat mutex, released on return so a scan
  /// continuing into the next shard never holds two (locks are only ever
  /// taken in increasing shard order, so no cycle either way).
  int ScanShard(Shard& shard, TreeSlot& slot, K key, int max_matches,
                std::vector<KeyValue<K>>* out) {
    const RegularBTree<K>& tree = slot.tree.host_tree();
    const int limit = static_cast<int>(
        std::min(static_cast<std::size_t>(max_matches), tree.size()));
    const std::size_t base = out->size();
    out->resize(base + static_cast<std::size_t>(limit));
#if HBTREE_OBS_HEAT
    std::lock_guard<std::mutex> heat_lock(shard.heat_pipeline->mu);
    const int found = tree.RangeScan(key, limit, out->data() + base,
                                     &shard.heat_pipeline->scan);
#else
    (void)shard;
    const int found = tree.RangeScan(key, limit, out->data() + base);
#endif
    out->resize(base + static_cast<std::size_t>(found));
    return found;
  }

  void ReadLoop(Shard& shard, int worker_index) {
    HBTREE_TRACE_ONLY(const std::string worker_name =
                          "serve.shard" + std::to_string(shard.index) +
                          ".read" + std::to_string(worker_index);)
    HBTREE_TRACE_THREAD_NAME(worker_name.c_str());
    (void)worker_index;
#if defined(__linux__)
    // See kReadWorkerNice: bulk dispatch yields the core to the
    // latency-critical commit path when they contend.
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                kReadWorkerNice);
#endif
    // Per-shard arrival rate is ~1/num_shards of the aggregate, and
    // co-workers on the same queue split that stream again; scale the
    // fill window to match (see kMaxBatchDelay).
    const std::chrono::microseconds fill_wait =
        kMaxBatchDelay *
        static_cast<int>(shards_.size() * options_.num_read_workers);
    std::vector<ReadOp> batch;
    std::vector<K> keys;
    std::vector<std::size_t> key_op;  // bucket position of keys[i]
    std::vector<LookupResult<K>> results;
    for (;;) {
      batch.clear();
      std::size_t n;
      {
        HBTREE_TRACE_SPAN("bucket.fill", "serve");
        n = shard.read_queue.PopBatch(
            &batch, static_cast<std::size_t>(options_.bucket_size),
            std::chrono::microseconds(10'000), fill_wait);
      }
      if (n == 0) {
        if (shard.read_queue.closed() && shard.read_queue.size() == 0) {
          return;
        }
        continue;
      }

      // Load shedding: an op whose deadline passed while it queued gets a
      // typed timeout now instead of a stale-but-late answer.
      const Clock::time_point now = Clock::now();
      std::size_t live = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (now > batch[i].deadline) {
          CountShed(shard, batch[i]);
          Reject(batch[i],
                 Status::DeadlineExceeded("read deadline passed in queue"));
          continue;
        }
        if (live != i) batch[live] = std::move(batch[i]);
        ++live;
      }
      batch.resize(live);
      if (batch.empty()) continue;

      // Queue wait (push -> dispatch), per op: the shard-imbalance
      // signal. The bucket's worst wait becomes a trace span ending now.
      std::uint64_t max_wait_ns = 0;
      for (const ReadOp& op : batch) {
        const std::uint64_t wait_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - op.admitted)
                .count());
        queue_wait_.Record(wait_ns);
        shard.queue_wait->Record(wait_ns);
        max_wait_ns = std::max(max_wait_ns, wait_ns);
      }
      HBTREE_TRACE_COMPLETE("queue.wait", "serve",
                            obs::TraceSession::NowUs() - max_wait_ns / 1e3,
                            max_wait_ns / 1e3, "ops", batch.size());

      auto guard = shard.snapshots.Acquire();
      TreeSlot& slot = guard.slot();

      // Priority-ordered graceful degradation: when the pinned slot's
      // breaker is open the shard is in CPU-fallback mode with a
      // fraction of its normal capacity, so low-priority ops are dropped
      // up front (kUnavailable — the request was not served and the
      // client should back off) to keep the remaining capacity for
      // normal/high traffic. Normal priority still sheds only by its own
      // deadline; high priority is never shed by policy.
      if (slot.breaker_open.load(std::memory_order_relaxed)) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i].priority == Priority::kLow) {
            CountShed(shard, batch[i]);
            degraded_sheds_.Increment();
            Reject(batch[i], Status::Unavailable(
                                 "low-priority read shed in degraded mode"));
            continue;
          }
          if (kept != i) batch[kept] = std::move(batch[i]);
          ++kept;
        }
        batch.resize(kept);
        if (batch.empty()) continue;
      }

      // Keyspace heat: every op this bucket actually dispatches (shed
      // ops never touched the tree) lands one sketch record, attributed
      // to its tenant. One multiply plus one relaxed add per op.
      HBTREE_HEAT_ONLY(for (const ReadOp& heat_op : batch) {
        shard.heat_sketch->Record(
            static_cast<std::uint64_t>(heat_op.key),
            static_cast<std::size_t>(heat_op.tenant));
      })

      keys.clear();
      key_op.clear();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].max_matches == 0) {
          keys.push_back(batch[i].key);
          key_op.push_back(i);
        }
      }

      std::vector<ReadResult<K>> out(batch.size());
      DispatchInfo dispatch_info;
      if (!keys.empty()) {
        const Clock::time_point dispatch_start = Clock::now();
        results.assign(keys.size(), LookupResult<K>{});
        DispatchBucket(shard, slot, keys, &results, &dispatch_info);
        if (options_.model_pacing > 0 && dispatch_info.modelled_us > 0) {
          // Model pacing: hold the bucket until its wall time covers the
          // modelled device time, so serving capacity tracks the
          // simulated platform (see ServerOptions::model_pacing). The
          // futures resolve after the sleep — clients observe the paced
          // service time.
          std::this_thread::sleep_until(
              dispatch_start +
              std::chrono::microseconds(static_cast<std::int64_t>(
                  dispatch_info.modelled_us * options_.model_pacing)));
        }
        for (std::size_t i = 0; i < keys.size(); ++i) {
          out[key_op[i]].lookup = results[i];
        }
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].max_matches > 0) {
          // Range queries resolve against the same pinned snapshot; the
          // leaf-sequential scan is the CPU's share regardless (Section
          // 5.4), so it runs host-side here. A scan exhausting this
          // shard's range continues into the next shard's snapshot,
          // pinned as it enters (per-shard consistency; see class docs).
          int matched = ScanShard(shard, slot, batch[i].key,
                                  batch[i].max_matches, &out[i].range);
          for (std::size_t next = static_cast<std::size_t>(shard.index) + 1;
               matched < batch[i].max_matches && next < shards_.size();
               ++next) {
            auto next_guard = shards_[next]->snapshots.Acquire();
            matched += ScanShard(*shards_[next], next_guard.slot(),
                                 shard_bounds_[next - 1],
                                 batch[i].max_matches - matched,
                                 &out[i].range);
          }
        }
      }

      read_buckets_.Increment();
      shard.read_buckets->Increment();
      {
        HBTREE_TRACE_SPAN_ARG("bucket.complete", "serve", "ops",
                              static_cast<double>(batch.size()));
        const Clock::time_point completed = Clock::now();
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const bool is_range = batch[i].max_matches > 0;
          TenantHandles& tenant = tenant_metrics_[static_cast<std::size_t>(
              batch[i].tenant)];
          batch[i].done.set_value(std::move(out[i]));
          RecordLatencyWithExemplar(&read_latency_, batch[i].admitted,
                                    completed, shard.index,
                                    dispatch_info.span_id,
                                    dispatch_info.modelled_us);
          RecordLatencyWithExemplar(tenant.read_latency, batch[i].admitted,
                                    completed, shard.index,
                                    dispatch_info.span_id,
                                    dispatch_info.modelled_us);
          if (is_range) {
            ranges_done_.Increment();
            tenant.ranges->Increment();
          } else {
            lookups_done_.Increment();
            tenant.lookups->Increment();
          }
        }
      }
    }
  }

  void UpdateLoop(Shard& shard) {
    HBTREE_TRACE_ONLY(const std::string worker_name =
                          "serve.shard" + std::to_string(shard.index) +
                          ".update";)
    HBTREE_TRACE_THREAD_NAME(worker_name.c_str());
    BatchUpdateConfig update_config;
    update_config.model_threads = options_.platform.cpu.threads;
    update_config.cpu_update_us = options_.cpu_update_us;
    std::vector<UpdateOp> ops;
    std::vector<UpdateQuery<K>> batch;
    std::vector<std::size_t> live;
    for (;;) {
      ops.clear();
      std::size_t n;
      {
        HBTREE_TRACE_SPAN("update.fill", "serve");
        // Same arrival-rate scaling as the read fill window: a shard sees
        // 1/num_shards of the update stream, and a half-filled commit
        // still pays the full publish cost (double apply + mirror sync +
        // reader drain), so small time-sliced batches are the worst case.
        n = shard.update_queue.PopBatch(
            &ops, static_cast<std::size_t>(options_.update_batch_size),
            std::chrono::microseconds(10'000),
            kMaxBatchDelay * static_cast<int>(shards_.size()));
      }
      if (n == 0) {
        if (shard.update_queue.closed() && shard.update_queue.size() == 0) {
          return;
        }
        continue;
      }

      // Shed expired updates before committing anything: a shed update is
      // promised to NOT have been applied.
      const Clock::time_point now = Clock::now();
      batch.clear();
      live.clear();
      batch.reserve(ops.size());
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (now > ops[i].deadline) {
          CountShed(shard, ops[i]);
          Reject(ops[i],
                 Status::DeadlineExceeded("update deadline passed in queue"));
          continue;
        }
        const std::uint64_t wait_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - ops[i].admitted)
                .count());
        queue_wait_.Record(wait_ns);
        shard.queue_wait->Record(wait_ns);
        HBTREE_HEAT_ONLY(shard.heat_sketch->Record(
            static_cast<std::uint64_t>(ops[i].query.pair.key),
            static_cast<std::size_t>(ops[i].tenant));)
        live.push_back(i);
        batch.push_back(ops[i].query);
      }
      if (batch.empty()) continue;

      // Left-right commit: apply to the standby instance, swap the
      // epoch so new read buckets see the batch, drain readers still on
      // the old instance, then converge it with the same batch. Host
      // application always completes; a failed device sync only leaves
      // that slot's mirror stale (the read workers' breaker reroutes it
      // to the CPU until a probe resyncs), so the updates commit and
      // their futures succeed either way.
      BatchUpdateStats first_pass{};
      bool recorded = false;
      Status sync_status = Status::Ok();
      std::uint64_t sync_retries = 0;
      std::uint64_t commit_span_id = 0;
      {
        // Identified like bucket.dispatch: update-latency exemplars point
        // at the commit span that published their batch.
        HBTREE_TRACE_ONLY(
            obs::ScopedSpan commit_span("update.commit", "serve", "updates",
                                        static_cast<double>(batch.size()));
            commit_span_id = commit_span.EnsureSpanId();)
        shard.snapshots.Publish(
            [&](TreeSlot& slot) {
              BatchUpdateStats pass;
              const Status status =
                  TryRunBatchUpdate(slot.tree, batch, kUpdateMethod,
                                    update_config, &pass);
              sync_retries += pass.sync_retries;
              if (!status.ok() && sync_status.ok()) sync_status = status;
              if (!recorded) {
                first_pass = pass;
                recorded = true;
              }
            },
            [&] {
              // Commit point: the epoch flipped, so every lookup admitted
              // from here on sees this batch (readers still pinned to the
              // old instance acquired before the flip and get the
              // pre-batch snapshot they are entitled to). Resolve the ops
              // now — the reader drain and the converge pass that follow
              // only protect the retired copy and would otherwise double
              // the latency every committed update observes.
              const std::uint64_t seq =
                  shard.committed_batches.fetch_add(
                      1, std::memory_order_acq_rel) +
                  1;
              committed_batches_.fetch_add(1, std::memory_order_acq_rel);
              committed_batches_metric_.Increment();
              shard.update_batches->Increment();
              const Clock::time_point committed = Clock::now();
              for (std::size_t idx : live) {
                UpdateOp& op = ops[idx];
                op.done.set_value(UpdateResult{Status::Ok(), seq});
                RecordLatencyWithExemplar(&update_latency_, op.admitted,
                                          committed, shard.index,
                                          commit_span_id,
                                          first_pass.total_us);
                updates_done_.Increment();
                tenant_metrics_[static_cast<std::size_t>(op.tenant)]
                    .updates->Increment();
              }
            });
      }
      sync_retries_.Add(sync_retries);
      if (!sync_status.ok()) {
        sync_failures_.Increment();
      }

      epoch_gauge_.Set(static_cast<double>(epoch()));
      {
        std::lock_guard<std::mutex> lock(sim_mutex_);
        sim_update_us_ += first_pass.total_us;
        shard.sim_update_us += first_pass.total_us;
        applied_ += first_pass.applied;
        structural_ += first_pass.structural;
        sim_sync_us_ += first_pass.sync_us;
        delta_syncs_ += first_pass.delta_syncs;
        full_syncs_ += first_pass.full_syncs;
        delta_sync_nodes_ += first_pass.delta_nodes;
      }
    }
  }

  // -- Segment temperature (heat observability) ---------------------------

  static void AccumulatePool(obs::PoolTemperature* total,
                             const obs::PoolTemperature& part) {
    total->segments += part.segments;
    total->hot += part.hot;
    total->warm += part.warm;
    total->cold += part.cold;
    total->cold_fraction =
        total->segments > 0
            ? static_cast<double>(total->cold) / total->segments
            : 0;
  }

  template <typename Pool>
  static std::vector<std::uint64_t> CollectTouches(const Pool& pool) {
    std::vector<std::uint64_t> touches(pool.chunk_count());
    for (std::size_t i = 0; i < touches.size(); ++i) {
      touches[i] = pool.chunk_touches(i);
    }
    return touches;
  }

  void PublishPoolGauges(const char* pool,
                         const obs::PoolTemperature& temp) {
    const std::string prefix = std::string("mem.pool.") + pool + ".";
    metrics_.gauge(prefix + "segments")
        .Set(static_cast<double>(temp.segments));
    metrics_.gauge(prefix + "hot").Set(static_cast<double>(temp.hot));
    metrics_.gauge(prefix + "warm").Set(static_cast<double>(temp.warm));
    metrics_.gauge(prefix + "cold").Set(static_cast<double>(temp.cold));
    metrics_.gauge(prefix + "cold_fraction").Set(temp.cold_fraction);
  }

  /// Classifies every shard's pinned snapshot pools from their chunk-touch
  /// counters and publishes the aggregate as mem.pool.<pool>.* gauges.
  /// Runs once, at Shutdown — never on the serving hot path. Pinning the
  /// snapshot keeps the pool's chunk list stable while it is read.
  void ObservePoolTemperatures() {
    obs::PoolTemperature inner_total;
    obs::PoolTemperature leaf_total;
    for (const auto& shard : shards_) {
      auto guard = shard->snapshots.Acquire();
      const auto& tree = guard.slot().tree.host_tree();
      std::lock_guard<std::mutex> lock(shard->heat_mutex);
      shard->pool_inner =
          obs::ClassifySegments(CollectTouches(tree.inner_pool()));
      shard->pool_leaf =
          obs::ClassifySegments(CollectTouches(tree.leaf_pool()));
      AccumulatePool(&inner_total, shard->pool_inner);
      AccumulatePool(&leaf_total, shard->pool_leaf);
    }
    PublishPoolGauges("inner", inner_total);
    PublishPoolGauges("leaf", leaf_total);
  }

  ServerOptions options_;

  /// Owns every serving counter/histogram plus the slots' gpusim.*
  /// metrics. Declared before the shards: slot destructors release
  /// device memory, which updates the used-bytes gauge, so the registry
  /// must outlive them.
  obs::MetricsRegistry metrics_;

  /// Resolved tenant topology (options_.tenants, or DefaultTenants()
  /// when none was configured) and the matching metric handles.
  /// Immutable after Init.
  std::vector<TenantSpec> tenants_ = DefaultTenants();
  std::vector<TenantHandles> tenant_metrics_;

  /// Key-range shards (stable addresses: workers hold references).
  std::vector<std::unique_ptr<Shard>> shards_;
  /// shard_bounds_[i] = smallest bootstrap key owned by shard i+1; empty
  /// for a single shard. Immutable after Init.
  std::vector<K> shard_bounds_;

  std::atomic<bool> stopped_{false};
  // Initialized at declaration (not only in Init()) so Stats() on a
  // partially constructed server can never divide by a garbage duration.
  Clock::time_point started_at_ = Clock::now();

  // Metric handles into metrics_ (declared above, before the shards).
  // Update hot paths cost exactly what the raw std::atomic members they
  // replaced did (one relaxed RMW).
  obs::Counter& lookups_done_ = metrics_.counter("serve.lookups");
  obs::Counter& ranges_done_ = metrics_.counter("serve.ranges");
  obs::Counter& updates_done_ = metrics_.counter("serve.updates");
  obs::Counter& read_buckets_ = metrics_.counter("serve.read_buckets");
  // Stays a raw atomic: the commit-sequence handoff needs acq_rel RMW
  // semantics the registry's relaxed counters deliberately do not offer.
  std::atomic<std::uint64_t> committed_batches_{0};
  obs::Counter& committed_batches_metric_ =
      metrics_.counter("serve.committed_batches");
  obs::Gauge& epoch_gauge_ = metrics_.gauge("serve.epoch");
  obs::Histogram& read_latency_ = metrics_.histogram("serve.read_latency");
  obs::Histogram& update_latency_ =
      metrics_.histogram("serve.update_latency");
  obs::Histogram& queue_wait_ = metrics_.histogram("serve.queue_wait");

  obs::Counter& shed_reads_ = metrics_.counter("serve.shed_reads");
  obs::Counter& shed_updates_ = metrics_.counter("serve.shed_updates");
  obs::Counter& degraded_sheds_ = metrics_.counter("serve.degraded_sheds");
  obs::Counter& transfer_retries_ =
      metrics_.counter("serve.transfer_retries");
  obs::Counter& kernel_retries_ = metrics_.counter("serve.kernel_retries");
  obs::Counter& sync_retries_ = metrics_.counter("serve.sync_retries");
  obs::Counter& device_faults_ = metrics_.counter("serve.device_faults");
  obs::Counter& sync_failures_ = metrics_.counter("serve.sync_failures");
  obs::Counter& breaker_opens_ = metrics_.counter("serve.breaker_opens");
  obs::Counter& breaker_closes_ = metrics_.counter("serve.breaker_closes");
  obs::Counter& probe_attempts_ = metrics_.counter("serve.probe_attempts");
  obs::Counter& cpu_fallback_buckets_ =
      metrics_.counter("serve.cpu_fallback_buckets");
  obs::Counter& cpu_fallback_lookups_ =
      metrics_.counter("serve.cpu_fallback_lookups");

  mutable std::mutex sim_mutex_;
  double sim_pipeline_us_ = 0;
  double sim_update_us_ = 0;
  double sim_sync_us_ = 0;
  std::uint64_t delta_syncs_ = 0;
  std::uint64_t full_syncs_ = 0;
  std::uint64_t delta_sync_nodes_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t structural_ = 0;
  /// options_.slos evaluated at Shutdown() (empty before).
  std::vector<obs::SloStatus> slos_;
};

}  // namespace hbtree::serve

#endif  // HBTREE_SERVE_SERVER_H_
