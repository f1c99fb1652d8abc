// Multi-tenant overload bench: offered load swept to 10x the modelled
// serving capacity across three tenants — interactive (weight 6, high
// priority, blocking admission), standard (weight 3, normal priority,
// shed_on_full), and hostile (weight 1, low priority, shed_on_full,
// tight deadline) — with model pacing so "N x capacity" means the same
// thing on every host. The QoS claim under test: the high-priority
// tenant's read p99 holds within its SLO with ZERO sheds at every load
// point while the hostile tenant's shed ratio absorbs the overload, and
// weighted fairness keeps even the hostile tenant served (no lockout).
// The bench exits 1 when any of those invariants breaks, so check.sh
// (mode `qos`) gates on it directly; the per-tenant rows it writes are
// the regression baseline BENCH_overload.json.
//
// Method: a closed-loop probe against a fresh server measures sustained
// capacity C (model pacing makes this track the simulated platform, not
// the host). Then for each multiplier m the tenants offer open-loop
// load: interactive at 0.15 C and standard at 0.25 C regardless of m
// (well-behaved tenants don't scale with the attack), hostile at
// (m - 0.40) C — total offered = m x C with all growth coming from the
// hostile tenant.
//
// Flags: --n_log2 (tree size), --bucket_log2, --pacing (model_pacing
// multiplier; sets capacity), --seconds (open-loop duration per load
// point), --probe_ops, --multipliers (comma list, default 1,2,5,10),
// --queue_capacity (per-tenant lane depth), --slo_us (interactive read
// p99 SLO), --shards, --read_workers, --pipeline_depth, --platform,
// --seed, --metrics_json (hbtree.bench.v1 report with the last — 10x —
// point's metrics snapshot and stage waterfall), --trace_out (Chrome
// trace of the last point; the dispatch spans its exemplars name live
// there).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/args.h"
#include "bench_support/report.h"
#include "bench_support/seeds.h"
#include "bench_support/serve_runner.h"
#include "obs/span_aggregator.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kInteractive = 0;
constexpr int kStandard = 1;
constexpr int kHostile = 2;

// Offered-load shares of capacity. The well-behaved tenants hold their
// rate as the multiplier grows; the hostile tenant supplies the rest.
constexpr double kInteractiveShare = 0.15;
constexpr double kStandardShare = 0.25;

std::vector<serve::TenantSpec> Tenants(double slo_us) {
  std::vector<serve::TenantSpec> tenants(3);
  tenants[kInteractive].name = "interactive";
  tenants[kInteractive].weight = 6;
  tenants[kInteractive].priority = serve::Priority::kHigh;
  tenants[kInteractive].shed_on_full = false;  // backpressure, never shed
  tenants[kInteractive].read_p99_slo_us = slo_us;
  tenants[kInteractive].slo_budget = 0.01;
  tenants[kStandard].name = "standard";
  tenants[kStandard].weight = 3;
  tenants[kStandard].priority = serve::Priority::kNormal;
  tenants[kStandard].shed_on_full = true;
  tenants[kStandard].read_p99_slo_us = 4 * slo_us;
  tenants[kStandard].slo_budget = 0.10;
  tenants[kHostile].name = "hostile";
  tenants[kHostile].weight = 1;
  tenants[kHostile].priority = serve::Priority::kLow;
  tenants[kHostile].shed_on_full = true;
  tenants[kHostile].read_p99_slo_us = 8 * slo_us;
  tenants[kHostile].slo_budget = 0.95;  // shedding is its expected state
  return tenants;
}

// Per-request deadlines: generous for interactive (only a gross QoS
// failure sheds it — keeps the zero-shed gate falsifiable), moderate for
// standard, tight for hostile so its backlog sheds at dispatch instead
// of aging in the lane.
constexpr std::chrono::microseconds kDeadlines[3] = {
    std::chrono::microseconds(2'000'000), std::chrono::microseconds(600'000),
    std::chrono::microseconds(120'000)};

std::uint64_t Xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Closed-loop capacity probe: a window of in-flight lookups kept full
/// until `probe_ops` resolve. With model pacing the sustained rate
/// tracks the simulated platform's bucket service time, so the measured
/// capacity is (nearly) host-independent.
double ProbeCapacity(serve::Server<Key64>& server,
                     const std::vector<Key64>& queries,
                     std::size_t probe_ops, std::uint64_t seed) {
  constexpr std::size_t kInFlight = 8 * 1024;
  std::deque<std::future<serve::ReadResult<Key64>>> window;
  std::uint64_t rng = seed | 1;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < probe_ops; ++i) {
    window.push_back(server.SubmitLookup(
        queries[Xorshift(rng) % queries.size()], {}, kInteractive));
    if (window.size() >= kInFlight) {
      window.front().get();
      window.pop_front();
    }
  }
  while (!window.empty()) {
    window.front().get();
    window.pop_front();
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  return wall > 0 ? probe_ops / wall : 0;
}

struct TenantRun {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;  // kDeadlineExceeded + kUnavailable
};

/// Open-loop source for one tenant: every millisecond tick it submits
/// the ops the rate accrued and reaps resolved futures from the front
/// of the window (sheds resolve immediately, served ops near-FIFO, so
/// the window stays bounded).
TenantRun OfferLoad(serve::Server<Key64>& server, int tenant, double rate,
                    double seconds, const std::vector<Key64>& queries,
                    std::uint64_t seed) {
  TenantRun run;
  std::deque<std::future<serve::ReadResult<Key64>>> window;
  std::uint64_t rng = seed | 1;
  double acc = 0;
  const auto reap_ready = [&] {
    while (!window.empty() &&
           window.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      const serve::ReadResult<Key64> r = window.front().get();
      window.pop_front();
      (r.status.ok() ? run.ok : run.shed)++;
    }
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(
                  static_cast<std::int64_t>(seconds * 1e6));
  Clock::time_point tick = start;
  while (tick < end) {
    tick += std::chrono::milliseconds(1);
    std::this_thread::sleep_until(tick);
    acc += rate / 1000.0;
    const int n = static_cast<int>(acc);
    acc -= n;
    for (int i = 0; i < n; ++i) {
      window.push_back(
          server.SubmitLookup(queries[Xorshift(rng) % queries.size()],
                              kDeadlines[tenant], tenant));
      ++run.submitted;
    }
    reap_ready();
  }
  while (!window.empty()) {
    const serve::ReadResult<Key64> r = window.front().get();
    window.pop_front();
    (r.status.ok() ? run.ok : run.shed)++;
  }
  return run;
}

struct PointResult {
  double load_x = 0;
  double wall_seconds = 0;
  serve::ServeStats stats;
};

int Main(int argc, char** argv) {
  Args args(argc, argv);
  args.PrintActive();
  const sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 18);
  const int bucket = 1 << args.GetInt("bucket_log2", 10);
  const double pacing = args.GetDouble("pacing", 64.0);
  const double seconds = args.GetDouble("seconds", 2.0);
  const std::size_t probe_ops =
      static_cast<std::size_t>(args.GetInt("probe_ops", 32 * 1024));
  const std::size_t queue_capacity =
      static_cast<std::size_t>(args.GetInt("queue_capacity", 4096));
  const double slo_us = args.GetDouble("slo_us", 250'000.0);
  const SeedPlan seeds(static_cast<std::uint64_t>(args.GetInt("seed", 1)));

  std::vector<double> multipliers;
  {
    const std::string spec = args.GetString("multipliers", "1,2,5,10");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t next = spec.find(',', pos);
      if (next == std::string::npos) next = spec.size();
      multipliers.push_back(std::stod(spec.substr(pos, next - pos)));
      pos = next + 1;
    }
  }

  std::printf("building %zu-key tree and calibrating on %s...\n", n,
              platform.name.c_str());
  const auto data = workload::GenerateDataset<Key64>(n, seeds.dataset);
  const auto queries = workload::MakeLookupQueries(data, seeds.queries);
  const std::vector<serve::TenantSpec> tenants = Tenants(slo_us);

  serve::ServerOptions options =
      CalibratedServerOptions(platform, data, seeds.calibrate, bucket);
  options.num_shards = static_cast<int>(args.GetInt("shards", 1));
  options.num_read_workers =
      static_cast<int>(args.GetInt("read_workers", 1));
  options.pipeline_depth =
      static_cast<int>(args.GetInt("pipeline_depth", 2));
  options.queue_capacity = queue_capacity;
  options.model_pacing = pacing;
  // Scale the sub-bucket floor to the (small) bench bucket: a dispatch
  // holding at least two floors of keys splits into sub-buckets, and
  // only a one-bucket dispatch always sorts (see Server::TryGpuBucket).
  options.min_sub_bucket =
      std::min(options.min_sub_bucket, std::max(1, bucket / 8));
  options.tenants = tenants;
  options.slos = serve::TenantServeSlos(tenants);

  // Capacity probe on a throwaway server with the identical topology.
  double capacity = 0;
  {
    Status status;
    auto probe = serve::Server<Key64>::Create(options, data, &status);
    if (probe == nullptr) {
      std::fprintf(stderr, "probe server creation failed: %s\n",
                   status.message().c_str());
      return 1;
    }
    capacity = ProbeCapacity(*probe, queries, probe_ops, seeds.queries);
    probe->Shutdown();
  }
  if (capacity <= 0) {
    std::fprintf(stderr, "capacity probe measured zero throughput\n");
    return 1;
  }
  std::printf("modelled serving capacity: %.0f ops/s (pacing %.0fx)\n",
              capacity, pacing);

  BenchReport report("serve_overload");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("bucket", bucket);
  report.MetaNum("pacing", pacing);
  report.MetaNum("seconds", seconds);
  report.MetaNum("queue_capacity", static_cast<double>(queue_capacity));
  report.MetaNum("slo_us", slo_us);
  report.MetaNum("shards", options.num_shards);
  report.MetaNum("read_workers", options.num_read_workers);
  // Tenant topology is part of the report's identity: a baseline from
  // one weight/priority/deadline layout must not gate a run of another
  // (bench_compare.py META_IDENTITY).
  report.Meta("tenants", "interactive,standard,hostile");
  report.Meta("tenant_weights", "6,3,1");
  report.Meta("tenant_priorities", "high,normal,low");
  report.Meta("tenant_deadlines_us", "2000000,600000,120000");
  report.Meta("tenant_shares", "0.15,0.25,overload");
  report.Meta("multipliers", args.GetString("multipliers", "1,2,5,10"));
  report.MetaNum("capacity_ops_per_s", capacity);
  seeds.Record(report);

  std::vector<PointResult> points;
  obs::MetricsSnapshot last_metrics;
  obs::StageWaterfall last_stages;

  for (const double mult : multipliers) {
    // Fresh server and trace session per load point: stats, SLO burn
    // and exemplars all describe exactly one load level.
    obs::TraceSession::Start();
    Status status;
    auto server = serve::Server<Key64>::Create(options, data, &status);
    if (server == nullptr) {
      std::fprintf(stderr, "server creation failed at %gx: %s\n", mult,
                   status.message().c_str());
      return 1;
    }
    const double rates[3] = {
        kInteractiveShare * capacity, kStandardShare * capacity,
        std::max(0.05, mult - kInteractiveShare - kStandardShare) *
            capacity};
    std::printf(
        "== load %gx capacity: interactive %.0f/s, standard %.0f/s, "
        "hostile %.0f/s ==\n",
        mult, rates[0], rates[1], rates[2]);

    TenantRun runs[3];
    const Clock::time_point start = Clock::now();
    {
      std::vector<std::thread> sources;
      for (int t = 0; t < 3; ++t) {
        sources.emplace_back([&, t] {
          runs[t] = OfferLoad(*server, t, rates[t], seconds, queries,
                              seeds.workload + static_cast<unsigned>(t));
        });
      }
      for (std::thread& s : sources) s.join();
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();

    server->Shutdown();
    obs::TraceSession::Stop();
    PointResult point;
    point.load_x = mult;
    point.wall_seconds = wall;
    point.stats = server->Stats();
    points.push_back(point);
    last_metrics = server->metrics().Collect();
    last_stages = obs::SpanAggregator::FromSession();

    std::printf("%s\n", point.stats.ToString().c_str());
    for (int t = 0; t < 3; ++t) {
      std::printf("  offered t%d: %llu submitted, %llu ok, %llu shed\n", t,
                  static_cast<unsigned long long>(runs[t].submitted),
                  static_cast<unsigned long long>(runs[t].ok),
                  static_cast<unsigned long long>(runs[t].shed));
    }
  }

  // One aggregate row plus one per-tenant row per load point. load_x
  // leads every row and (with the tenant index) keys row matching in
  // bench_compare.py.
  for (const PointResult& point : points) {
    BenchReport::Row& row = report.AddRow();
    row.Num("load_x", point.load_x, 1);
    report.AddServeStatsRow(row, point.stats);
    row.Num("degraded_sheds", static_cast<double>(point.stats.degraded_sheds),
            0);
    for (std::size_t t = 0; t < point.stats.tenants.size(); ++t) {
      BenchReport::Row& trow = report.AddRow();
      trow.Num("load_x", point.load_x, 1);
      report.AddTenantStatsRow(trow, static_cast<int>(t),
                               point.stats.tenants[t], point.wall_seconds);
    }
  }
  report.SetStages(last_stages);
  report.PrintTable("multi-tenant overload sweep");

  // -- QoS invariants (exit 1 on violation) -------------------------------
  bool ok = true;
  const auto gate = [&ok](bool pass, const char* format, auto... values) {
    std::printf(pass ? "PASS: " : "FAIL: ");
    std::printf(format, values...);
    std::printf("\n");
    if (!pass) ok = false;
  };
  const double max_mult =
      *std::max_element(multipliers.begin(), multipliers.end());
  for (const PointResult& point : points) {
    const serve::TenantServeStats& hi = point.stats.tenants[kInteractive];
    const serve::TenantServeStats& hostile =
        point.stats.tenants[kHostile];
    gate(hi.shed() == 0, "%gx: interactive sheds == 0 (got %llu)",
         point.load_x, static_cast<unsigned long long>(hi.shed()));
    gate(hi.read_latency.count > 0 && hi.read_latency.p99_us <= slo_us,
         "%gx: interactive read p99 %.0f us <= SLO %.0f us", point.load_x,
         hi.read_latency.p99_us, slo_us);
    gate(hostile.served() > 0,
         "%gx: hostile tenant still served (%llu ops; weighted "
         "fairness, not lockout)",
         point.load_x, static_cast<unsigned long long>(hostile.served()));
    if (point.load_x >= max_mult) {
      gate(hostile.shed_ratio() >= 0.5,
           "%gx: hostile shed ratio %.2f >= 0.5 (overload absorbed by "
           "the low-priority tenant)",
           point.load_x, hostile.shed_ratio());
    }
  }

  if (args.Has("metrics_json")) {
    if (!report.WriteJson(args.GetString("metrics_json", ""),
                          &last_metrics)) {
      return 1;
    }
  }
  MaybeWriteTrace(args);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) { return hbtree::bench::Main(argc, argv); }
