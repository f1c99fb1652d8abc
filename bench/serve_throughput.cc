// Serving-layer throughput/latency bench: N client threads submit point
// lookups against the serving front-end (src/serve/) while a separate
// client streams batch updates, exercising the epoch-swapped snapshot
// path — lookups keep completing while update batches commit, the
// paper's asynchronous update model (Section 5.6) as a live service.
//
// Sweeps the serving topology: each row runs the same total load against
// a server with a different (num_shards, num_read_workers) pair, so the
// table shows what key-range sharding and concurrent dispatchers buy at
// equal work. `vs_baseline` is wall-clock aggregate (lookup + update)
// throughput relative to the first row; `modelled_vs_baseline` is the
// same ratio on modelled serving capacity (total ops over the busiest
// shard's modelled busy time) — the paper-platform number, free of this
// host's core count. Sharding multiplies modelled capacity because the
// shards' devices are independent; wall throughput on a small host mostly
// shows the per-op serving overhead.
//
// Prints per-op wall-clock p50/p99 latency, sustained throughput, and
// the overlap evidence: how many read buckets completed strictly between
// the first and last update commit. Also writes the canonical serving
// baseline BENCH_serve.json (schema hbtree.bench.v1 with the last run's
// metrics registry embedded plus a "stages" waterfall — where the last
// run's time went per pipeline stage) — override the path with
// --metrics_json.
//
// Every run records its own trace session (tracing is compiled into
// this binary), so tail-latency exemplars and the stage waterfall work
// without flags; --trace_out additionally exports the last run's
// session as Chrome trace JSON, matching the embedded metrics snapshot.
//
// Flags: --n_log2 (tree size), --clients (lookup threads), --lookups
// (per client), --updates (total update stream), --bucket_log2,
// --pipeline_async (ops in flight per client), --shards (fixed shard
// count; 0 sweeps the topology grid (1,1), (1,--read_workers), (4,1),
// (4,--read_workers)), --read_workers (dispatchers per shard),
// --platform, --seed, --metrics_json (output path), --trace_out (Chrome
// trace JSON of the last run).

#include <cstdio>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "bench_support/args.h"
#include "bench_support/report.h"
#include "bench_support/seeds.h"
#include "bench_support/serve_runner.h"
#include "core/workload.h"
#include "obs/span_aggregator.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace hbtree::bench {
namespace {

struct RunResult {
  serve::ServeStats stats;
  std::uint64_t overlapped_buckets = 0;
  double hit_rate = 0;
  obs::MetricsSnapshot metrics;
  obs::StageWaterfall stages;
  obs::HeatSection heat;
};

/// Runs the whole client workload against one server configuration.
/// Returns false (with a clear error on stderr) if the server cannot be
/// built — misconfigured shard/worker counts must fail loudly, not limp
/// through a degenerate run.
bool RunOne(const serve::ServerOptions& options,
            const std::vector<KeyValue<Key64>>& data,
            const std::vector<Key64>& queries,
            const std::vector<UpdateQuery<Key64>>& updates, int clients,
            std::size_t lookups_per_client, std::size_t in_flight,
            RunResult* out) {
  // Each run is its own trace session: the dispatch spans feed the tail-
  // latency exemplars and the stage waterfall even when no trace file is
  // requested. Start() clears the previous run's events, so whatever the
  // caller exports afterwards covers the last run only — consistent with
  // the last-run metrics snapshot the report embeds.
  obs::TraceSession::Start();
  Status create_status;
  auto server_ptr = serve::Server<Key64>::Create(options, data, &create_status);
  if (server_ptr == nullptr) {
    std::fprintf(stderr,
                 "server creation failed (shards=%d, read_workers=%d): %s\n",
                 options.num_shards, options.num_read_workers,
                 create_status.message().c_str());
    return false;
  }
  serve::Server<Key64>& server = *server_ptr;

  std::atomic<std::uint64_t> buckets_before_first_commit{0};
  std::atomic<std::uint64_t> buckets_after_last_commit{0};

  // Update client: streams the whole update workload through the server
  // in submission windows, recording the commit span.
  std::thread update_client([&] {
    std::vector<std::future<serve::UpdateResult>> pending;
    pending.reserve(updates.size());
    buckets_before_first_commit.store(server.Stats().read_buckets);
    for (const auto& update : updates) {
      pending.push_back(server.SubmitUpdate(update));
    }
    for (auto& f : pending) f.get();
    buckets_after_last_commit.store(server.Stats().read_buckets);
  });

  // Lookup clients: each keeps up to `in_flight` async lookups
  // outstanding and harvests the oldest half-window when full, so the
  // admission stream never goes fully silent while a bucket is in flight
  // (per-op harvesting costs a wakeup per future; full-window harvesting
  // starves the queues between windows).
  std::vector<std::thread> lookup_clients;
  std::atomic<std::uint64_t> hits{0};
  for (int c = 0; c < clients; ++c) {
    lookup_clients.emplace_back([&, c] {
      std::deque<std::future<serve::ReadResult<Key64>>> window;
      const std::size_t harvest = std::max<std::size_t>(1, in_flight / 2);
      std::uint64_t local_hits = 0;
      for (std::size_t i = 0; i < lookups_per_client; ++i) {
        if (window.size() >= in_flight) {
          for (std::size_t h = 0; h < harvest; ++h) {
            local_hits += window.front().get().lookup.found;
            window.pop_front();
          }
        }
        window.push_back(server.SubmitLookup(
            queries[(c * lookups_per_client + i) % queries.size()]));
      }
      for (auto& f : window) local_hits += f.get().lookup.found;
      hits.fetch_add(local_hits);
    });
  }

  for (auto& t : lookup_clients) t.join();
  update_client.join();

  // Shutdown first: its final CollectWindow() flush feeds the SLO
  // tracker, so Stats() below reports burn rates covering the whole run.
  server.Shutdown();
  obs::TraceSession::Stop();

  out->stats = server.Stats();
  out->overlapped_buckets =
      buckets_after_last_commit.load() - buckets_before_first_commit.load();
  out->hit_rate = static_cast<double>(hits.load()) /
                  (static_cast<double>(clients) * lookups_per_client);
  out->metrics = server.metrics().Collect();
  out->stages = obs::SpanAggregator::FromSession();
  out->heat = server.Heat();
  return true;
}

int Main(int argc, char** argv) {
  Args args(argc, argv);
  args.PrintActive();
  const sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1}
                        << args.GetInt("n_log2", 20);
  const int clients = static_cast<int>(args.GetInt("clients", 4));
  const std::size_t lookups_per_client =
      static_cast<std::size_t>(args.GetInt("lookups", 64 * 1024));
  const std::size_t total_updates =
      static_cast<std::size_t>(args.GetInt("updates", 48 * 1024));
  const int bucket = 1 << args.GetInt("bucket_log2", 14);
  const std::size_t in_flight =
      static_cast<std::size_t>(args.GetInt("pipeline_async", 4096));
  const SeedPlan seeds(static_cast<std::uint64_t>(args.GetInt("seed", 1)));
  const int fixed_shards = static_cast<int>(args.GetInt("shards", 0));
  const int read_workers = static_cast<int>(args.GetInt("read_workers", 2));

  std::printf("building %zu-key tree and calibrating on %s...\n", n,
              platform.name.c_str());
  auto data = GenerateDataset<Key64>(n, seeds.dataset);
  serve::ServerOptions base_options =
      CalibratedServerOptions(platform, data, seeds.calibrate, bucket);
  base_options.pipeline_depth =
      static_cast<int>(args.GetInt("pipeline_depth", 4));

  auto queries = MakeLookupQueries(data, seeds.queries);
  auto updates = MakeUpdateBatch(data, total_updates,
                                 /*insert_fraction=*/0.7, seeds.updates);

  std::vector<std::pair<int, int>> sweep;  // (shards, read_workers)
  if (fixed_shards > 0) {
    sweep.emplace_back(fixed_shards, read_workers);
  } else {
    // Row 1 is the pre-sharding topology (one shard, one dispatcher) so
    // vs_baseline / modelled_vs_baseline read as "what the PR bought".
    sweep.emplace_back(1, 1);
    sweep.emplace_back(1, read_workers);
    sweep.emplace_back(4, 1);
    sweep.emplace_back(4, read_workers);
  }

  BenchReport report("serve_throughput");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("clients", clients);
  report.MetaNum("lookups_per_client", static_cast<double>(lookups_per_client));
  report.MetaNum("updates", static_cast<double>(total_updates));
  report.MetaNum("bucket", bucket);
  seeds.Record(report);

  RunResult last;
  double baseline_agg = 0;
  double baseline_modelled = 0;
  for (const auto& [shards, workers] : sweep) {
    serve::ServerOptions options = base_options;
    options.num_shards = shards;
    options.num_read_workers = workers;
    std::printf("-- shards=%d read_workers=%d --\n", shards, workers);
    RunResult result;
    if (!RunOne(options, data, queries, updates, clients, lookups_per_client,
                in_flight, &result)) {
      return 1;
    }
    std::printf("%s\n", result.stats.ToString().c_str());
    std::printf(
        "overlap: %llu read buckets completed during the update stream's "
        "commit span (%llu batches)\n",
        static_cast<unsigned long long>(result.overlapped_buckets),
        static_cast<unsigned long long>(result.stats.update_batches));
    std::printf("lookup hit rate: %.3f (starts at 1.0; drops only as the "
                "stream's deletes commit)\n",
                result.hit_rate);

    const double agg = result.stats.reads_per_second +
                       result.stats.updates_per_second;
    const double modelled = result.stats.modelled_ops_per_second;
    if (baseline_agg == 0) baseline_agg = agg;
    if (baseline_modelled == 0) baseline_modelled = modelled;
    BenchReport::Row& row = report.AddRow();
    report.AddServeStatsRow(row, result.stats);
    row.Num("overlapped_buckets",
            static_cast<double>(result.overlapped_buckets), 0)
        .Num("update_batches",
             static_cast<double>(result.stats.update_batches), 0)
        .Num("hit_rate", result.hit_rate, 3)
        .Num("vs_baseline", baseline_agg > 0 ? agg / baseline_agg : 0, 2)
        .Num("modelled_vs_baseline",
             baseline_modelled > 0 ? modelled / baseline_modelled : 0, 2);
    last = std::move(result);
  }

  MaybeWriteTrace(args);  // last run's session; RunOne already stopped it
  report.SetStages(last.stages);
  report.SetHeat(last.heat);
  report.PrintTable("serving throughput (canonical columns)");
  const std::string json_path =
      args.GetString("metrics_json", "BENCH_serve.json");
  if (!report.WriteJson(json_path, &last.metrics)) return 1;
  return 0;
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) { return hbtree::bench::Main(argc, argv); }
