#ifndef HBTREE_SERVE_SERVE_STATS_H_
#define HBTREE_SERVE_SERVE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/slo.h"
#include "serve/tenant.h"

namespace hbtree::serve {

/// Per-tenant slice of the serving stats (one entry per configured
/// TenantSpec, same order). Counts are completed/shed operations
/// attributed to the tenant; the latency summary is the tenant's own
/// wall read-latency distribution.
struct TenantServeStats {
  std::string name;
  int weight = 1;
  Priority priority = Priority::kNormal;
  std::uint64_t lookups = 0;
  std::uint64_t ranges = 0;
  std::uint64_t updates = 0;
  std::uint64_t shed_reads = 0;
  std::uint64_t shed_updates = 0;
  obs::LatencySummary read_latency;

  std::uint64_t served() const { return lookups + ranges + updates; }
  std::uint64_t shed() const { return shed_reads + shed_updates; }
  /// Shed operations over everything the tenant submitted that resolved
  /// (served + shed); 0 when the tenant was idle.
  double shed_ratio() const {
    const std::uint64_t total = served() + shed();
    return total > 0 ? static_cast<double>(shed()) / total : 0;
  }
};

/// Aggregate serving-layer statistics, exposed by Server::Stats().
///
/// Latencies are wall-clock (admission to completion, so they include
/// queueing and batching delay); the sim_* fields aggregate the simulated
/// platform timing the pipeline and batch updater report, letting a bench
/// compare real serving overhead against the modelled hardware time.
struct ServeStats {
  // Serving topology: key-range shards and read workers per shard.
  int num_shards = 1;
  int num_read_workers = 1;

  // Completed operation counts.
  std::uint64_t lookups = 0;
  std::uint64_t ranges = 0;
  std::uint64_t updates = 0;

  // Batching behaviour.
  std::uint64_t read_buckets = 0;    // dispatched pipeline buckets
  std::uint64_t update_batches = 0;  // committed update batches
  double avg_bucket_fill = 0;        // lookups per dispatched bucket

  // Wall-clock latency percentiles.
  obs::LatencySummary read_latency;
  obs::LatencySummary update_latency;
  // Admission-queue wait (push to dispatch) across all shards; per-shard
  // distributions live in the registry as serve.shard<N>.queue_wait.
  obs::LatencySummary queue_wait;

  // Throughput over the server's lifetime so far.
  double wall_seconds = 0;
  double reads_per_second = 0;
  double updates_per_second = 0;

  // Simulated-platform aggregates (µs on the modelled hardware clock).
  double sim_pipeline_us = 0;
  double sim_update_us = 0;
  // I-segment mirror synchronization: modelled time and how each sync
  // travelled — delta (dirty hot fragments streamed in place) vs full
  // re-upload. sim_sync_us is included in sim_update_us.
  double sim_sync_us = 0;
  std::uint64_t delta_syncs = 0;
  std::uint64_t full_syncs = 0;
  std::uint64_t delta_sync_nodes = 0;  // hot fragments streamed by deltas

  // Modelled serving capacity. Shards are independent modelled devices,
  // so their busy times overlap; within a shard, read buckets and update
  // syncs share one device and are charged serially (conservative). The
  // makespan is therefore max over shards of (pipeline + update busy
  // time), and modelled throughput is total served operations divided by
  // that makespan — the number the paper's platform would sustain, free
  // of this host's core count (see DESIGN.md §9).
  double modelled_makespan_us = 0;
  double modelled_ops_per_second = 0;

  // Update outcome counters (from BatchUpdateStats).
  std::uint64_t applied = 0;
  std::uint64_t structural = 0;

  // Snapshot epoch at the time of the stats snapshot: each committed
  // update batch advances it by one swap.
  std::uint64_t epoch = 0;

  // -- Fault tolerance ----------------------------------------------------

  // Deadline-based load shedding: requests resolved with
  // kDeadlineExceeded instead of being served.
  std::uint64_t shed_reads = 0;
  std::uint64_t shed_updates = 0;

  // Priority-aware degradation: low-priority reads dropped (kUnavailable)
  // because the pinned slot's breaker was open when their bucket was
  // assembled. A subset of shed_reads.
  std::uint64_t degraded_sheds = 0;

  /// Shed operations as a fraction of everything that resolved (served +
  /// shed); the aggregate load-shedding rate.
  double shed_ratio() const {
    const std::uint64_t total =
        lookups + ranges + updates + shed_reads + shed_updates;
    return total > 0
               ? static_cast<double>(shed_reads + shed_updates) / total
               : 0;
  }

  // Device-fault handling in the read/update paths.
  std::uint64_t transfer_retries = 0;  // transient transfer faults retried
  std::uint64_t kernel_retries = 0;    // transient kernel faults retried
  std::uint64_t sync_retries = 0;      // update-path sync faults retried
  std::uint64_t device_faults = 0;     // bucket dispatches that failed on GPU
  std::uint64_t sync_failures = 0;     // update batches with a failed sync

  // Circuit breaker: per-slot GPU paths flip to CPU-only after repeated
  // failures and recover via periodic probes.
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t probe_attempts = 0;

  // Degraded-mode serving: buckets answered by the CPU-only pipelined
  // search instead of the heterogeneous pipeline.
  std::uint64_t cpu_fallback_buckets = 0;
  std::uint64_t cpu_fallback_lookups = 0;

  // Total faults the armed injectors produced (all sites, both slots).
  std::uint64_t faults_injected = 0;

  // Burn-rate state of every SLO (ServerOptions::slos): empty until
  // Shutdown() evaluates them over the run's lifetime metrics.
  std::vector<obs::SloStatus> slos;

  // Per-tenant breakdown (ServerOptions::tenants order; a single default
  // entry when no topology was configured).
  std::vector<TenantServeStats> tenants;

  /// Human-readable multi-line report (used by bench/ and examples/).
  std::string ToString() const;
};

}  // namespace hbtree::serve

#endif  // HBTREE_SERVE_SERVE_STATS_H_
