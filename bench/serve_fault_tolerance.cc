// Fault-tolerance bench: serving throughput and tail latency as the
// injected device fault rate sweeps {0, 1%, 10%}. For each rate a fresh
// server runs the same concurrent lookup+update workload while transfer
// and kernel faults fire; the table reports sustained reads/s, wall-
// clock p50/p99, how many faults the retry layer absorbed, and the
// circuit-breaker activity (opens/closes, CPU-fallback buckets) behind
// the degraded-mode throughput.
//
// Flags: --n_log2 (tree size), --clients (lookup threads), --lookups
// (per client), --updates (total update stream), --bucket_log2,
// --retries (device retry budget), --deadline_us (per-request deadline,
// 0 = none), --shards / --read_workers (serving topology; creation
// fails loudly if the per-shard trees exceed the device arena backing),
// --platform, --seed, --metrics_json (hbtree.bench.v1 JSON
// with the last run's metrics embedded and its stage waterfall under
// "stages"), --trace_out (Chrome trace JSON of the last — highest fault
// rate — run: breaker open/close show up as instants, bucket stages on
// the modelled resource tracks). Each run records its own trace session
// so exemplars and the waterfall work without flags.

#include <atomic>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_support/args.h"
#include "bench_support/report.h"
#include "bench_support/seeds.h"
#include "bench_support/serve_runner.h"
#include "obs/span_aggregator.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

struct RateResult {
  double fault_rate = 0;
  serve::ServeStats stats;
};

int Main(int argc, char** argv) {
  Args args(argc, argv);
  args.PrintActive();
  const sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 20);
  const int clients = static_cast<int>(args.GetInt("clients", 4));
  const std::size_t lookups_per_client =
      static_cast<std::size_t>(args.GetInt("lookups", 48 * 1024));
  const std::size_t total_updates =
      static_cast<std::size_t>(args.GetInt("updates", 24 * 1024));
  const int bucket = 1 << args.GetInt("bucket_log2", 12);
  const int retries = static_cast<int>(args.GetInt("retries", 3));
  const auto deadline =
      std::chrono::microseconds(args.GetInt("deadline_us", 0));
  const SeedPlan seeds(static_cast<std::uint64_t>(args.GetInt("seed", 1)));

  std::printf("building %zu-key tree and calibrating on %s...\n", n,
              platform.name.c_str());
  auto data = workload::GenerateDataset<Key64>(n, seeds.dataset);
  serve::ServerOptions base_options =
      CalibratedServerOptions(platform, data, seeds.calibrate, bucket);
  base_options.max_device_retries = retries;
  base_options.pipeline_depth =
      static_cast<int>(args.GetInt("pipeline_depth", 4));
  base_options.num_shards = static_cast<int>(args.GetInt("shards", 1));
  base_options.num_read_workers =
      static_cast<int>(args.GetInt("read_workers", 1));
  auto queries = workload::MakeLookupQueries(data, seeds.queries);
  auto updates = workload::MakeUpdateBatch(
      data, total_updates, /*insert_fraction=*/0.7, seeds.updates);

  const double rates[] = {0.0, 0.01, 0.10};
  std::vector<RateResult> results;
  obs::MetricsSnapshot last_metrics;
  obs::StageWaterfall last_stages;

  for (const double rate : rates) {
    // Per-run session: exemplars and the stage waterfall need live spans
    // even without --trace_out; Start() clears the previous run.
    obs::TraceSession::Start();
    serve::ServerOptions options = base_options;
    if (rate > 0) {
      options.fault = fault::FaultConfig::Transfers(rate, seeds.faults);
      options.fault.site(fault::Site::kKernel).probability = rate / 2;
    }
    Status status;
    auto server_ptr = serve::Server<Key64>::Create(options, data, &status);
    if (server_ptr == nullptr) {
      std::fprintf(stderr,
                   "server creation failed (shards=%d, read_workers=%d): %s\n",
                   options.num_shards, options.num_read_workers,
                   status.message().c_str());
      return 1;
    }
    serve::Server<Key64>& server = *server_ptr;

    std::thread update_client([&] {
      std::vector<std::future<serve::UpdateResult>> pending;
      pending.reserve(updates.size());
      for (const auto& update : updates) {
        pending.push_back(server.SubmitUpdate(update, deadline));
      }
      for (auto& f : pending) f.get();
    });

    std::vector<std::thread> lookup_clients;
    std::atomic<std::uint64_t> served{0};
    for (int c = 0; c < clients; ++c) {
      lookup_clients.emplace_back([&, c] {
        std::vector<std::future<serve::ReadResult<Key64>>> window;
        window.reserve(1024);
        std::uint64_t local_served = 0;
        for (std::size_t i = 0; i < lookups_per_client; ++i) {
          window.push_back(server.SubmitLookup(
              queries[(c * lookups_per_client + i) % queries.size()],
              deadline));
          if (window.size() == 1024) {
            for (auto& f : window) local_served += f.get().status.ok();
            window.clear();
          }
        }
        for (auto& f : window) local_served += f.get().status.ok();
        served.fetch_add(local_served);
      });
    }

    for (auto& t : lookup_clients) t.join();
    update_client.join();
    server.Shutdown();
    obs::TraceSession::Stop();

    RateResult result;
    result.fault_rate = rate;
    result.stats = server.Stats();
    results.push_back(result);
    last_metrics = server.metrics().Collect();
    last_stages = obs::SpanAggregator::FromSession();
    std::printf("fault rate %.2f: %llu/%zu lookups served ok\n", rate,
                static_cast<unsigned long long>(served.load()),
                static_cast<std::size_t>(clients) * lookups_per_client);
  }
  MaybeWriteTrace(args);  // last run's session; the loop already stopped it

  BenchReport report("serve_fault_tolerance");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("clients", clients);
  report.MetaNum("retries", retries);
  report.MetaNum("deadline_us", static_cast<double>(deadline.count()));
  seeds.Record(report);
  for (const RateResult& r : results) {
    BenchReport::Row& row = report.AddRow();
    row.Num("fault_rate", r.fault_rate, 2);
    report.AddServeStatsRow(row, r.stats);
  }
  report.SetStages(last_stages);
  report.PrintTable("serving under injected device faults");
  if (args.Has("metrics_json")) {
    if (!report.WriteJson(args.GetString("metrics_json", ""),
                          &last_metrics)) {
      return 1;
    }
  }
  std::printf(
      "\nretry budget %d per device op; breaker threshold %d, probe "
      "interval %d; deadline %lld us (0 = none)\n",
      retries, base_options.breaker_failure_threshold,
      base_options.breaker_probe_interval,
      static_cast<long long>(deadline.count()));
  return 0;
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) { return hbtree::bench::Main(argc, argv); }
