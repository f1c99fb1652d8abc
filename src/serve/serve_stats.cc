#include "serve/serve_stats.h"

#include <cstdio>

namespace hbtree::serve {

std::string ServeStats::ToString() const {
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "serve: %llu lookups, %llu ranges, %llu updates in %.2fs "
      "(%d shard%s x %d read worker%s)\n"
      "  throughput: %.0f reads/s, %.0f updates/s\n"
      "  batching:   %llu read buckets (avg fill %.1f), %llu update "
      "batches, epoch %llu\n"
      "  read  latency us: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f\n"
      "  update latency us: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f\n"
      "  queue  wait   us: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f\n"
      "  simulated platform: pipeline %.0f us, updates %.0f us "
      "(%llu applied, %llu structural)\n"
      "  mirror sync: %.0f us; %llu delta / %llu full syncs, %llu "
      "fragments streamed\n"
      "  modelled capacity: %.0f ops/s (busiest-shard makespan %.0f us)\n"
      "  faults: %llu injected, %llu device faults, %llu sync failures, "
      "retries %llu/%llu/%llu (transfer/kernel/sync)\n"
      "  breaker: %llu opens, %llu closes, %llu probes; cpu fallback "
      "%llu buckets / %llu lookups\n"
      "  shed: %llu reads, %llu updates (%.2f%% of resolved ops; %llu "
      "degraded low-priority)",
      static_cast<unsigned long long>(lookups),
      static_cast<unsigned long long>(ranges),
      static_cast<unsigned long long>(updates), wall_seconds, num_shards,
      num_shards == 1 ? "" : "s", num_read_workers,
      num_read_workers == 1 ? "" : "s", reads_per_second, updates_per_second,
      static_cast<unsigned long long>(read_buckets), avg_bucket_fill,
      static_cast<unsigned long long>(update_batches),
      static_cast<unsigned long long>(epoch), read_latency.p50_us,
      read_latency.p90_us, read_latency.p99_us, read_latency.max_us,
      update_latency.p50_us, update_latency.p90_us, update_latency.p99_us,
      update_latency.max_us, queue_wait.p50_us, queue_wait.p90_us,
      queue_wait.p99_us, queue_wait.max_us, sim_pipeline_us, sim_update_us,
      static_cast<unsigned long long>(applied),
      static_cast<unsigned long long>(structural), sim_sync_us,
      static_cast<unsigned long long>(delta_syncs),
      static_cast<unsigned long long>(full_syncs),
      static_cast<unsigned long long>(delta_sync_nodes),
      modelled_ops_per_second, modelled_makespan_us,
      static_cast<unsigned long long>(faults_injected),
      static_cast<unsigned long long>(device_faults),
      static_cast<unsigned long long>(sync_failures),
      static_cast<unsigned long long>(transfer_retries),
      static_cast<unsigned long long>(kernel_retries),
      static_cast<unsigned long long>(sync_retries),
      static_cast<unsigned long long>(breaker_opens),
      static_cast<unsigned long long>(breaker_closes),
      static_cast<unsigned long long>(probe_attempts),
      static_cast<unsigned long long>(cpu_fallback_buckets),
      static_cast<unsigned long long>(cpu_fallback_lookups),
      static_cast<unsigned long long>(shed_reads),
      static_cast<unsigned long long>(shed_updates), shed_ratio() * 100.0,
      static_cast<unsigned long long>(degraded_sheds));
  std::string out = buffer;
  // One line per tenant only when a real topology is configured — the
  // implicit single default tenant would just repeat the totals.
  if (tenants.size() > 1) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const TenantServeStats& tenant = tenants[t];
      std::snprintf(
          buffer, sizeof(buffer),
          "\n  tenant %zu %-10s (%s, w%d): %llu served, %llu shed "
          "(%.2f%%), read p99 %.1f us",
          t, tenant.name.c_str(), PriorityName(tenant.priority),
          tenant.weight, static_cast<unsigned long long>(tenant.served()),
          static_cast<unsigned long long>(tenant.shed()),
          tenant.shed_ratio() * 100.0, tenant.read_latency.p99_us);
      out += buffer;
    }
  }
  for (const obs::SloStatus& slo : slos) {
    std::snprintf(buffer, sizeof(buffer),
                  "\n  slo %-12s bad %.3f%% of budget %.1f%%, burn %.2f%s",
                  slo.name.c_str(), slo.bad_fraction * 100.0,
                  slo.budget * 100.0, slo.burn,
                  slo.burning() ? "  ** BURNING **" : "");
    out += buffer;
  }
  return out;
}

}  // namespace hbtree::serve
