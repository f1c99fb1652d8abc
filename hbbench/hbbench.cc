// hbbench: the repository's benchmark. One process runs one workload for
// one seed and prints every metric by name with its unit.
//
// A run measures on two clocks (HBBENCH.md has the full metric table):
//  * Offline, on the simulated-platform clock. The regular HB+-tree's bucket
//    pipeline is called directly by one closed-loop caller: lookups through
//    RunSearchPipeline, asynchronous-parallel RunBatchUpdate batches, and
//    RunRangePipeline queries, plus the CPU-tree baseline (MeasureCpuSearch).
//    These are the paper's Fig 13/16/17 quantities. The modelled numbers come
//    from the first round only, so they are bit-exact for a given seed; later
//    rounds repeat the same calls for host-clock throughput.
//  * Online, on the host clock. The sharded serving front-end (serve::Server,
//    2 shards x 1 read worker, M = 16K, pipeline depth 4) takes open-loop
//    Poisson traffic from one generator thread: a read-only phase and a mixed
//    phase at fixed rates, then a bisection for the highest rate that meets
//    the latency limits. Latency is timed from each op's due time; a harvester
//    thread polls every in-flight future without blocking, in no fixed order.
//
// Inputs come from src/workload/ (MakeDataset, KeyChooser) and are fully
// determined by --seed; the library only sees the generated keys and ops.
// Every output is checked against an oracle outside the timed regions, and a
// mismatch makes the process exit non-zero.
//
// Flags: --workload=uniform|zipf, --seed=N, --seconds=S (measuring budget,
// split across the phases), --smoke (every workload at toy size, checks on),
// --trace_out=PATH (traced build only: Chrome trace JSON of the run).
// The last stdout line is `HBBENCH_RESULT <json>`.
//
// Built twice from this file: `hbbench` (tracing compiled out, the source of
// every end-to-end metric) and `hbbench_traced` (HBTREE_OBS_TRACING=1), which
// records the benchmark's own spans and reports layer self times plus the
// serving stage waterfall.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "bench_support/args.h"
#include "bench_support/calibrate.h"
#include "bench_support/harness.h"
#include "bench_support/serve_runner.h"
#include "hybrid/batch_update.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_regular.h"
#include "hybrid/range_pipeline.h"
#include "obs/span_aggregator.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "workload/dataset.h"
#include "workload/key_chooser.h"

namespace hbtree::hbbench {
namespace {

using Clock = std::chrono::steady_clock;
using serve::ReadResult;
using serve::Server;
using serve::UpdateResult;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------------ workloads

/// A workload is a data regime plus the traffic that runs against it.
struct Workload {
  const char* name;
  int log2_keys;
  workload::KeyChooserKind chooser;  // lookup, delete and range-start keys
  double read_rate;   // ops/s of the read-only open-loop phase
  double mixed_rate;  // ops/s of the mixed phase; floor of the max-rate search
};

// `uniform` is the paper's Fig 13/16/17 regime: 2^22 keys (64 MiB of pairs,
// 3x the modelled 20 MiB LLC), and queries of a bucket share few inner nodes,
// so level-wise dedup saves little, the bucket sort's CPU-stage charge is
// exposed and every mirror sync moves a large I-segment. `zipf` is the
// opposite corner: 2^18 keys that fit the modelled LLC under scrambled
// Zipf(0.99) keys, so a bucket shares nodes at every level and syncs are
// cheap. The fixed serving rates sit at a quarter to a third of each
// regime's capacity on a 4-core host, where latency is set by the batching
// policy rather than by how much CPU the host lends the server that second.
constexpr Workload kWorkloads[] = {
    {"uniform", 22, workload::KeyChooserKind::kUniform, 150e3, 100e3},
    {"zipf", 18, workload::KeyChooserKind::kScrambledZipfian, 200e3, 150e3},
};

/// Sizes and durations of one run, derived from --seconds.
struct Plan {
  int log2_keys = 0;
  std::size_t lookups = 0;         // per offline round, one pipeline call
  std::size_t update_batches = 0;  // per offline round
  std::size_t update_batch = 0;    // updates per RunBatchUpdate call
  std::size_t ranges = 0;          // per offline round, one pipeline call
  double offline_s = 0;            // rounds repeat until this much host time
  double warm_s = 0;               // warm-up of each fixed-rate phase
  double read_s = 0, mixed_s = 0;  // timed part of the fixed-rate phases
  double probe_warm_s = 0, probe_s = 0;
  int probes = 0;                  // bisection steps of the max-rate search
  std::size_t delete_lag = 0;      // serving deletes target the insert this
                                   // many inserts earlier
  double rate_scale = 1;           // multiplies the workload's rates
};

// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetups = 3;

Plan MakePlan(const Workload& w, double seconds, bool smoke) {
  Plan p;
  if (smoke) {
    p.log2_keys = 14;
    p.lookups = std::size_t{1} << 15;
    p.update_batches = 2;
    p.update_batch = 4 * 1024;
    p.ranges = std::size_t{1} << 12;
    p.offline_s = 0.1;
    p.warm_s = 0.1;
    p.read_s = 0.4;
    p.mixed_s = 0.4;
    p.probe_warm_s = 0.05;
    p.probe_s = 0.2;
    p.probes = 2;
    p.delete_lag = 1024;
    p.rate_scale = 0.2;
    return p;
  }
  p.log2_keys = w.log2_keys;
  p.lookups = std::size_t{1} << 20;
  p.update_batches = 8;
  p.update_batch = 16 * 1024;
  p.ranges = std::size_t{1} << 16;
  p.offline_s = 0.3 * seconds;
  p.warm_s = 0.5;
  p.read_s = 0.3 * seconds;
  p.mixed_s = 0.2 * seconds;
  p.probes = 6;
  p.probe_warm_s = 0.25;
  p.probe_s = 0.025 * seconds;
  p.delete_lag = 32 * 1024;  // 64K writes earlier at a 50/50 write mix
  return p;
}

// Limits a max-rate probe must meet (p99 over its timed window).
constexpr double kLimitMs = 10.0;
// One in this many Submit* calls records a span in the traced build.
constexpr std::size_t kSubmitSample = 64;
// The generator wakes at most once per tick and submits everything due; a
// syscall per op would take the cores the server's threads need.
constexpr auto kGeneratorTick = std::chrono::microseconds(25);
// Harvester sleep between polling passes; a pass plus the sleep is the
// latency resolution (load.harvest_period_us), kept under 50 µs.
constexpr auto kHarvestSleep = std::chrono::microseconds(20);
// Range queries ask for 1..kMaxMatches pairs.
constexpr int kMaxMatches = 100;
// The serving stack's admission bucket M (the paper's 16K).
constexpr int kServeBucket = 16 * 1024;
// Range-partitioned serving shards, one read worker each.
constexpr std::size_t kServeShards = 2;

// -------------------------------------------------------------------- report

/// Named metrics in insertion order, each with its unit.
class Report {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  void Print() const {
    for (const auto& m : metrics_) {
      std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0);
      out += (i ? ",\"" : "\"") + metrics_[i].name + "\":{\"value\":" +
             value + ",\"unit\":\"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Correctness bookkeeping for the whole run.
struct Outcome {
  std::uint64_t attempted = 0;  // ops handed to the library or the server
  std::uint64_t failed = 0;     // ops resolved with a non-ok status
  std::uint64_t wrong = 0;      // outputs that disagree with the oracle
  void Mismatch(const char* what, Key64 key) {
    if (wrong++ < 5) {
      std::fprintf(stderr, "check failed: %s (key %" PRIu64 ")\n", what, key);
    }
  }
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(std::llround(rank))];
}

/// p50, p99 and the highest percentile with at least ten samples beyond it.
struct LatencyBlock {
  std::size_t count = 0;
  double p50 = 0, p99 = 0, tail = 0;
  double tail_q = 0;
};

LatencyBlock Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencyBlock b;
  b.count = samples.size();
  b.p50 = Percentile(samples, 0.5);
  b.p99 = Percentile(samples, 0.99);
  for (double q : {0.9, 0.99, 0.999, 0.9999, 0.99999}) {
    if (static_cast<double>(samples.size()) * (1 - q) >= 10) {
      b.tail_q = q;
      b.tail = Percentile(samples, q);
    }
  }
  return b;
}

void PrintBlock(const char* name, const char* unit, const LatencyBlock& b) {
  std::printf("  %-24s n=%zu p50=%.4g p99=%.4g p%g=%.4g %s\n", name, b.count,
              b.p50, b.p99, b.tail_q * 100, b.tail, unit);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

/// Heap bytes in use (arena plus mmapped chunks) — deterministic for a
/// deterministic allocation sequence, unlike resident-set size.
double HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

// -------------------------------------------------------------------- inputs

Key64 ValueOf(Key64 key, std::uint64_t seed) {
  return workload::BootstrapValue(key, seed);
}

/// Fresh keys: keys never handed out before, each strictly inside the gap
/// between two neighbouring bootstrap keys of the same serving shard, so
/// inserts always add a record and the largest key of every leaf stays a
/// bootstrap key. Serving never deletes bootstrap keys, so no leaf's last
/// line ever empties. That case must be avoided: a gapped-leaf insert that
/// spills into an emptied last line (RegularBTree::SpillIntoGap) drops the
/// leaf's separator pin, and later keys of that range are written past the
/// leaf. The offline phase avoids it by running its deletes after its
/// inserts.
class FreshKeys {
 public:
  FreshKeys(const std::vector<KeyValue<Key64>>& bootstrap, std::uint64_t seed)
      : bootstrap_(bootstrap), rng_(seed) {
    // The server starts shard s at bootstrap key n * s / shards; the gap
    // below that key belongs to the previous shard's rightmost leaf.
    for (std::size_t s = 1; s < kServeShards; ++s) {
      shard_starts_.push_back(bootstrap.size() * s / kServeShards);
    }
  }

  Key64 Next() {
    for (;;) {
      // Gap i lies between bootstrap keys i and i + 1.
      const std::size_t i = rng_.NextBounded(bootstrap_.size() - 1);
      if (std::find(shard_starts_.begin(), shard_starts_.end(), i + 1) !=
          shard_starts_.end()) {
        continue;
      }
      const Key64 lo = bootstrap_[i].key;
      const Key64 hi = bootstrap_[i + 1].key;
      if (hi - lo < 2) continue;
      const Key64 key = lo + 1 + rng_.NextBounded(hi - lo - 1);
      if (issued_.insert(key).second) return key;
    }
  }

 private:
  const std::vector<KeyValue<Key64>>& bootstrap_;
  Rng rng_;
  std::vector<std::size_t> shard_starts_;
  std::unordered_set<Key64> issued_;
};

/// Everything generated from the seed before any timing starts.
struct Inputs {
  std::uint64_t seed = 0;
  workload::BootstrapDataset data;
  std::vector<Key64> pool;  // chooser draws, reused cyclically by serving
  std::vector<Key64> lookups;
  std::vector<std::vector<UpdateQuery<Key64>>> batches;
  std::vector<Key64> inserted;  // fresh keys the batches insert
  std::vector<Key64> deleted;   // distinct bootstrap keys the batches delete
  std::vector<Key64> live;      // sorted key set after the update phase
  std::vector<RangeQuery<Key64>> ranges;
};

Inputs MakeInputs(const Workload& w, const Plan& plan, std::uint64_t seed) {
  HBTREE_TRACE_SPAN("input.offline", "hbbench");
  Inputs in;
  in.seed = seed;
  in.data = workload::MakeDataset(workload::DatasetKind::kUniform,
                                  std::size_t{1} << plan.log2_keys, seed);
  const auto& pairs = in.data.pairs;
  workload::KeyChooser::Params params;
  params.kind = w.chooser;
  const workload::KeyChooser chooser(params, pairs.size());
  Rng rng(seed ^ 0x6862626e63686f6full);
  const std::size_t pool_size =
      std::max<std::size_t>(plan.lookups, std::size_t{1} << 21);
  in.pool.resize(pool_size);
  for (Key64& key : in.pool) key = pairs[chooser.Next(rng)].key;
  in.lookups.assign(in.pool.begin(), in.pool.begin() + plan.lookups);

  // Update phase: the first half of the batches insert fresh keys, the
  // second half delete chooser-picked bootstrap keys (skewed choosers
  // repeat keys; a repeat is a no-op). No insert follows a delete, which
  // keeps the phase clear of the emptied-last-line case (see FreshKeys).
  FreshKeys fresh(pairs, seed ^ 0x667265736866ull);
  std::unordered_set<Key64> deleted;
  std::size_t cursor = plan.lookups;
  for (std::size_t b = 0; b < plan.update_batches; ++b) {
    const bool inserts = b < plan.update_batches / 2;
    std::vector<UpdateQuery<Key64>> batch;
    for (std::size_t i = 0; i < plan.update_batch; ++i) {
      if (inserts) {
        const Key64 key = fresh.Next();
        in.inserted.push_back(key);
        batch.push_back({UpdateQuery<Key64>::Kind::kInsert,
                         {key, ValueOf(key, seed)}});
      } else {
        const Key64 key = in.pool[cursor++ % in.pool.size()];
        if (deleted.insert(key).second) in.deleted.push_back(key);
        batch.push_back({UpdateQuery<Key64>::Kind::kDelete, {key, 0}});
      }
    }
    in.batches.push_back(std::move(batch));
  }

  in.live.reserve(pairs.size() + in.inserted.size());
  for (const auto& kv : pairs) {
    if (!deleted.count(kv.key)) in.live.push_back(kv.key);
  }
  in.live.insert(in.live.end(), in.inserted.begin(), in.inserted.end());
  std::sort(in.live.begin(), in.live.end());

  for (std::size_t i = 0; i < plan.ranges; ++i) {
    in.ranges.push_back(
        {in.pool[cursor++ % in.pool.size()],
         1 + static_cast<int>(rng.NextBounded(kMaxMatches))});
  }
  return in;
}

// --------------------------------------------------------------------- setup

/// The leaf rate the bucket pipeline sees: a calibrated per-query rate with
/// the platform's per-query hybrid overhead added to each thread's time
/// (the same conversion bench::HbBench applies).
double PipelineLeafRate(const sim::PlatformSpec& spec, double queries_per_us) {
  const double threads = spec.cpu.threads;
  return threads * 1e3 /
         (threads * 1e3 / queries_per_us + spec.cpu.hybrid_overhead_ns);
}

/// Every index a run measures: the offline hybrid tree with its calibrated
/// pipeline configurations, the CPU-tree baseline, and the serving stack.
struct Index {
  explicit Index(const sim::PlatformSpec& spec)
      : sim(spec),
        tree(TreeConfig(), &registry, &sim.device, &sim.transfer),
        cpu_tree(RegularBTree<Key64>::Config{}, &cpu_registry) {}

  // Updates follow, so the hybrid tree is built with the serving stack's
  // leaf slack (a full tree would make every insert a split).
  static HBRegularTree<Key64>::Config TreeConfig() {
    HBRegularTree<Key64>::Config config;
    config.tree.leaf_fill = serve::ServerOptions{}.leaf_fill;
    return config;
  }

  bench::SimPlatform sim;
  PageRegistry registry;
  HBRegularTree<Key64> tree;
  PageRegistry cpu_registry;
  RegularBTree<Key64> cpu_tree;
  bench::HbCpuRates rates;
  double range_leaf_queries_per_us = 0;
  PipelineConfig lookup_config;
  PipelineConfig range_config;
  BatchUpdateConfig update_config;
  std::unique_ptr<Server<Key64>> server;
};

struct SetupTimes {
  double total_s = 0, build_s = 0, calibrate_s = 0, cpu_build_s = 0,
         serve_s = 0, heap_mb = 0;
};

std::unique_ptr<Index> Setup(const Inputs& in, SetupTimes* times) {
  HBTREE_TRACE_SPAN("setup", "hbbench");
  const sim::PlatformSpec spec = sim::PlatformSpec::M1();
  const double heap0 = HeapBytes();
  const Clock::time_point t0 = Clock::now();
  auto ix = std::make_unique<Index>(spec);
  const auto& pairs = in.data.pairs;
  {
    HBTREE_TRACE_SPAN("hybrid.build", "hbbench");
    HBTREE_CHECK_MSG(ix->tree.Build(pairs),
                     "I-segment does not fit into device memory");
  }
  const Clock::time_point t1 = Clock::now();
  {
    HBTREE_TRACE_SPAN("hybrid.calibrate", "hbbench");
    const auto& host = ix->tree.host_tree();
    ix->rates = bench::CalibrateHbCpuRates(host, in.lookups, spec,
                                           ix->registry);
    // Range queries spend their CPU share scanning the leaf chain, so their
    // leaf stage gets its own rate, traced over the run's own range inputs.
    std::vector<KeyValue<Key64>> scratch(kMaxMatches);
    const bench::SearchMeasurement scan = bench::MeasureCpuOp(
        spec, ix->registry, host.config().search_algo, bench::ModelOptions{},
        [&](sim::CpuTracer& tracer, std::size_t i) {
          const RangeQuery<Key64>& q = in.ranges[i % in.ranges.size()];
          const auto pos = host.FindLeafPosition(q.first_key);
          tracer.OnQueryStart();
          host.ScanLeaves(pos, q.first_key, q.match_count, scratch.data(),
                          &tracer);
          tracer.OnQueryEnd();
        });
    ix->range_leaf_queries_per_us = scan.estimate.mqps;

    PipelineConfig& lookup = ix->lookup_config;
    lookup.cpu_queries_per_us =
        PipelineLeafRate(spec, ix->rates.leaf_queries_per_us);
    lookup.cpu_descend_us_per_level = ix->rates.descend_us_per_level;
    lookup.cpu_descend_us_by_depth = ix->rates.descend_us_by_depth;
    ix->range_config = lookup;
    ix->range_config.cpu_queries_per_us =
        PipelineLeafRate(spec, ix->range_leaf_queries_per_us);
    ix->update_config.model_threads = spec.cpu.threads;
    ix->update_config.cpu_update_us =
        bench::EstimateUpdateCostUs(host, in.lookups, spec, ix->registry);
  }
  const Clock::time_point t2 = Clock::now();
  {
    HBTREE_TRACE_SPAN("cpubtree.build", "hbbench");
    ix->cpu_tree.Build(pairs);
  }
  const Clock::time_point t3 = Clock::now();
  {
    HBTREE_TRACE_SPAN("serve.create", "hbbench");
    serve::ServerOptions options =
        bench::CalibratedServerOptions(spec, pairs, in.seed, kServeBucket);
    options.num_shards = static_cast<int>(kServeShards);
    options.num_read_workers = 1;
    options.pipeline_depth = 4;
    Status status;
    ix->server = Server<Key64>::Create(options, pairs, &status);
    HBTREE_CHECK_MSG(ix->server != nullptr, "server creation failed: %s",
                     status.message().c_str());
  }
  const Clock::time_point t4 = Clock::now();
  times->total_s = Seconds(t0, t4);
  times->build_s = Seconds(t0, t1);
  times->calibrate_s = Seconds(t1, t2);
  times->cpu_build_s = Seconds(t2, t3);
  times->serve_s = Seconds(t3, t4);
  times->heap_mb = (HeapBytes() - heap0) / (1024.0 * 1024.0);
  return ix;
}

// -------------------------------------------------------------- fingerprint

/// Canonical dump of every constant the modelled metrics depend on: the
/// simulated platform, the cost fields of the default pipeline and
/// batch-update configurations, and this run's calibrated rates. Two runs
/// whose fingerprints differ measured with different instruments, so their
/// model_* metrics are not comparable.
std::string ModelConstants(const sim::PlatformSpec& p) {
  std::string s;
  auto add = [&s](const char* name, double v) {
    char line[96];
    std::snprintf(line, sizeof(line), "%s=%.17g\n", name, v);
    s += line;
  };
  const sim::CpuSpec& c = p.cpu;
  s += "platform=" + p.name + "\n";
  add("cpu.cores", c.cores);
  add("cpu.threads", c.threads);
  add("cpu.frequency_ghz", c.frequency_ghz);
  for (const auto& level : c.cache_levels) {
    s += "cpu.cache." + level.name + "\n";
    add("  size_bytes", static_cast<double>(level.size_bytes));
    add("  associativity", level.associativity);
  }
  add("cpu.l2_latency_ns", c.l2_latency_ns);
  add("cpu.l3_latency_ns", c.l3_latency_ns);
  add("cpu.dram_latency_ns", c.dram_latency_ns);
  add("cpu.walk_access_ns", c.walk_access_ns);
  add("cpu.dram_bandwidth_gbps", c.dram_bandwidth_gbps);
  add("cpu.mlp_per_thread", c.mlp_per_thread);
  add("cpu.smt_compute_yield", c.smt_compute_yield);
  add("cpu.compute_ns_sequential", c.compute_ns_sequential);
  add("cpu.compute_ns_linear_simd", c.compute_ns_linear_simd);
  add("cpu.compute_ns_hierarchical_simd", c.compute_ns_hierarchical_simd);
  add("cpu.hybrid_overhead_ns", c.hybrid_overhead_ns);
  const sim::GpuSpec& g = p.gpu;
  add("gpu.sm_count", g.sm_count);
  add("gpu.cores", g.cores);
  add("gpu.core_clock_ghz", g.core_clock_ghz);
  add("gpu.memory_bytes", static_cast<double>(g.memory_bytes));
  add("gpu.l2_bytes", static_cast<double>(g.l2_bytes));
  add("gpu.l2_associativity", g.l2_associativity);
  add("gpu.memory_bandwidth_gbps", g.memory_bandwidth_gbps);
  add("gpu.memory_latency_ns", g.memory_latency_ns);
  add("gpu.random_access_efficiency", g.random_access_efficiency);
  add("gpu.warp_size", g.warp_size);
  add("gpu.max_resident_warps", g.max_resident_warps);
  add("gpu.kernel_launch_us", g.kernel_launch_us);
  add("gpu.warp_ipc_per_sm", g.warp_ipc_per_sm);
  add("pcie.bandwidth_h2d_gbps", p.pcie.bandwidth_h2d_gbps);
  add("pcie.bandwidth_d2h_gbps", p.pcie.bandwidth_d2h_gbps);
  add("pcie.transfer_init_us", p.pcie.transfer_init_us);
  add("pcie.streamed_init_us", p.pcie.streamed_init_us);
  const PipelineConfig pc;
  add("pipeline.bucket_size", pc.bucket_size);
  add("pipeline.strategy", static_cast<int>(pc.strategy));
  add("pipeline.level_wise", pc.level_wise);
  add("pipeline.sort_us_per_query", pc.sort_us_per_query);
  add("pipeline.cpu_descend_levels", pc.cpu_descend_levels);
  add("pipeline.cpu_split_ratio", pc.cpu_split_ratio);
  add("pipeline.buckets_in_flight", pc.buckets_in_flight);
  const BatchUpdateConfig uc;
  add("update.group_size", uc.group_size);
  add("update.lock_overhead_us", uc.lock_overhead_us);
  add("update.sort_us_per_query", uc.sort_us_per_query);
  add("update.parallel_efficiency", uc.parallel_efficiency);
  return s;
}

std::string CalibratedRates(const Index& ix) {
  std::string s;
  char line[96];
  std::snprintf(line, sizeof(line), "rates.leaf_queries_per_us=%.17g\n",
                ix.rates.leaf_queries_per_us);
  s += line;
  for (std::size_t d = 0; d < ix.rates.descend_us_by_depth.size(); ++d) {
    std::snprintf(line, sizeof(line), "rates.descend_us_by_depth[%zu]=%.17g\n",
                  d, ix.rates.descend_us_by_depth[d]);
    s += line;
  }
  std::snprintf(line, sizeof(line), "rates.range_leaf_queries_per_us=%.17g\n",
                ix.range_leaf_queries_per_us);
  s += line;
  std::snprintf(line, sizeof(line), "rates.cpu_update_us=%.17g\n",
                ix.update_config.cpu_update_us);
  return s + line;
}

std::string Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char out[20];
  std::snprintf(out, sizeof(out), "%016" PRIx64, h);
  return out;
}

// ------------------------------------------------------------------- offline

void CheckLookups(const Inputs& in,
                  const std::vector<LookupResult<Key64>>& results,
                  Outcome* outcome) {
  HBTREE_TRACE_SPAN("check", "hbbench");
  // Lookups run on the bootstrap key set (the previous round restored it).
  for (std::size_t i = 0; i < in.lookups.size(); ++i) {
    if (!results[i].found || results[i].value != ValueOf(in.lookups[i], in.seed)) {
      outcome->Mismatch("offline lookup", in.lookups[i]);
    }
  }
}

void CheckTouched(const Inputs& in, const RegularBTree<Key64>& host,
                  Outcome* outcome) {
  HBTREE_TRACE_SPAN("check", "hbbench");
  for (Key64 key : in.inserted) {
    const LookupResult<Key64> r = host.Search(key);
    if (!r.found || r.value != ValueOf(key, in.seed)) {
      outcome->Mismatch("inserted key missing", key);
    }
  }
  for (Key64 key : in.deleted) {
    if (host.Search(key).found) outcome->Mismatch("deleted key present", key);
  }
}

void CheckRanges(const Inputs& in, const std::vector<KeyValue<Key64>>& pairs,
                 const std::vector<int>& counts, Outcome* outcome) {
  HBTREE_TRACE_SPAN("check", "hbbench");
  for (std::size_t i = 0; i < in.ranges.size(); ++i) {
    const RangeQuery<Key64>& q = in.ranges[i];
    const auto first =
        std::lower_bound(in.live.begin(), in.live.end(), q.first_key);
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(q.match_count),
        static_cast<std::size_t>(in.live.end() - first));
    if (static_cast<std::size_t>(counts[i]) != want) {
      outcome->Mismatch("range match count", q.first_key);
      continue;
    }
    const KeyValue<Key64>* got = pairs.data() + i * kMaxMatches;
    for (std::size_t j = 0; j < want; ++j) {
      const Key64 key = first[static_cast<std::ptrdiff_t>(j)];
      if (got[j].key != key || got[j].value != ValueOf(key, in.seed)) {
        outcome->Mismatch("range pair", q.first_key);
        break;
      }
    }
  }
}

void RunOffline(Index& ix, const Inputs& in, const Plan& plan, Report* r,
                Outcome* outcome) {
  HBTREE_TRACE_SPAN("offline", "hbbench");
  const sim::PlatformSpec& spec = ix.sim.spec;
  std::vector<LookupResult<Key64>> results;
  std::vector<KeyValue<Key64>> range_pairs;
  std::vector<int> range_counts;
  PipelineStats lookup0, range0;
  bench::SearchMeasurement cpu0;
  std::vector<BatchUpdateStats> updates0;
  double lookup_wall = 0, update_wall = 0, range_wall = 0;
  std::vector<double> round_ops_per_s;
  const std::size_t updates_per_round = plan.update_batches * plan.update_batch;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round == 0 || Seconds(start, Clock::now()) < plan.offline_s;
       ++round) {
    HBTREE_TRACE_SPAN_ARG("round", "hbbench", "round", round);
    double round_wall = 0;
    {
      HBTREE_TRACE_SPAN("phase.lookup", "hbbench");
      PipelineStats stats;
      {
        HBTREE_TRACE_SPAN("hybrid.lookup", "hbbench");
        const Clock::time_point t = Clock::now();
        stats = RunSearchPipeline(ix.tree, in.lookups.data(), in.lookups.size(),
                                  ix.lookup_config, &results);
        const double dt = Seconds(t, Clock::now());
        lookup_wall += dt;
        round_wall += dt;
      }
      if (round == 0) {
        lookup0 = stats;
        HBTREE_TRACE_SPAN("cpubtree.measure", "hbbench");
        cpu0 = bench::MeasureCpuSearch(ix.cpu_tree, in.lookups, spec,
                                       ix.cpu_registry,
                                       ix.cpu_tree.config().search_algo);
      }
      CheckLookups(in, results, outcome);
    }
    {
      HBTREE_TRACE_SPAN("phase.update", "hbbench");
      for (const auto& batch : in.batches) {
        HBTREE_TRACE_SPAN("hybrid.update", "hbbench");
        const Clock::time_point t = Clock::now();
        const BatchUpdateStats stats = RunBatchUpdate(
            ix.tree, batch, UpdateMethod::kAsyncParallel, ix.update_config);
        const double dt = Seconds(t, Clock::now());
        update_wall += dt;
        round_wall += dt;
        if (round == 0) updates0.push_back(stats);
      }
      CheckTouched(in, ix.tree.host_tree(), outcome);
    }
    {
      HBTREE_TRACE_SPAN("phase.range", "hbbench");
      PipelineStats stats;
      {
        HBTREE_TRACE_SPAN("hybrid.range", "hbbench");
        const Clock::time_point t = Clock::now();
        stats = RunRangePipeline(ix.tree, in.ranges.data(), in.ranges.size(),
                                 kMaxMatches, ix.range_config, &range_pairs,
                                 &range_counts);
        const double dt = Seconds(t, Clock::now());
        range_wall += dt;
        round_wall += dt;
      }
      if (round == 0) range0 = stats;
      CheckRanges(in, range_pairs, range_counts, outcome);
    }
    {
      // Untimed: rebuild from the bootstrap pairs so every round starts from
      // the same tree and repeats the same checks.
      HBTREE_TRACE_SPAN("restore", "hbbench");
      HBTREE_CHECK_MSG(ix.tree.Build(in.data.pairs),
                       "I-segment does not fit into device memory");
    }
    outcome->attempted +=
        in.lookups.size() + updates_per_round + in.ranges.size();
    round_ops_per_s.push_back(
        static_cast<double>(in.lookups.size() + updates_per_round +
                            in.ranges.size()) /
        round_wall);
    std::printf("offline round %d: %.4g ops/s in the library calls\n", round,
                round_ops_per_s.back());
  }
  const double rounds = static_cast<double>(round_ops_per_s.size());

  r->Set("hybrid.wall_ops_per_s", Median(round_ops_per_s), "ops/s");
  r->Set("model_lookup_mqps", lookup0.mqps, "MQPS");
  r->Set("model_lookup_latency_us", lookup0.avg_latency_us, "us");
  r->Set("model_cpu_lookup_mqps", cpu0.estimate.mqps, "MQPS");
  double update_us = 0, sync_us = 0, total_us = 0;
  std::uint64_t queries = 0, structural = 0, delta = 0, full = 0, nodes = 0;
  for (const BatchUpdateStats& s : updates0) {
    update_us += s.update_us;
    sync_us += s.sync_us;
    total_us += s.total_us;
    queries += s.queries;
    structural += s.structural;
    delta += s.delta_syncs;
    full += s.full_syncs;
    nodes += s.delta_nodes;
  }
  r->Set("model_update_mups", queries / total_us, "Mupd/s");
  r->Set("model_range_mqps", range0.mqps, "MQPS");

  const double q = static_cast<double>(lookup0.queries);
  r->Set("hybrid.cpu_us_per_bucket", lookup0.t4_us, "us");
  r->Set("hybrid.cpu_busy_frac", lookup0.cpu_busy_us / lookup0.total_us,
         "ratio");
  r->Set("gpusim.h2d_us_per_bucket", lookup0.t1_us, "us");
  r->Set("gpusim.kernel_us_per_bucket", lookup0.t2_us, "us");
  r->Set("gpusim.d2h_us_per_bucket", lookup0.t3_us, "us");
  r->Set("gpusim.busy_frac", lookup0.gpu_busy_us / lookup0.total_us, "ratio");
  // Two PCIe directions, each its own engine: mean utilisation of the pair.
  r->Set("gpusim.pcie_busy_frac", lookup0.pcie_busy_us / (2 * lookup0.total_us),
         "ratio");
  std::uint64_t loads = 0, resolved = 0;
  for (std::uint64_t v : lookup0.kernel.node_loads_by_level) loads += v;
  for (std::uint64_t v : lookup0.kernel.node_queries_by_level) resolved += v;
  r->Set("gpusim.node_loads_per_query",
         resolved > 0 ? static_cast<double>(loads) / resolved : 1.0, "ratio");
  r->Set("gpusim.dram_bytes_per_query", lookup0.kernel.dram_bytes / q, "B");
  r->Set("gpusim.l2_bytes_per_query", lookup0.kernel.l2_bytes / q, "B");
  r->Set("gpusim.transactions_per_query",
         lookup0.kernel.memory_transactions / q, "count");
  r->Set("cpubtree.model_us_per_lookup", cpu0.estimate.latency_us, "us");
  r->Set("cpubtree.leaf_us_per_query", 1.0 / ix.rates.leaf_queries_per_us,
         "us");
  r->Set("hybrid.lookup_wall_ns_per_query",
         lookup_wall * 1e9 / (rounds * in.lookups.size()), "ns");
  r->Set("hybrid.range.wall_ns_per_query",
         range_wall * 1e9 / (rounds * in.ranges.size()), "ns");
  r->Set("hybrid.update.wall_ns_per_update",
         update_wall * 1e9 / (rounds * updates_per_round), "ns");
  r->Set("hybrid.range.cpu_us_per_bucket", range0.t4_us, "us");
  r->Set("hybrid.range.kernel_us_per_bucket", range0.t2_us, "us");
  const double batches = static_cast<double>(updates0.size());
  r->Set("hybrid.update.model_update_us", update_us / batches, "us");
  r->Set("hybrid.update.model_sync_us", sync_us / batches, "us");
  r->Set("hybrid.update.delta_syncs", static_cast<double>(delta), "count");
  r->Set("hybrid.update.full_syncs", static_cast<double>(full), "count");
  r->Set("hybrid.update.delta_nodes", static_cast<double>(nodes), "count");
  r->Set("hybrid.update.structural_frac",
         static_cast<double>(structural) / queries, "ratio");
  r->Set("offline.rounds", rounds, "count");
}

// -------------------------------------------------------------------- online

enum class OpKind : std::uint8_t { kLookup, kInsert, kDelete };

struct Op {
  double due_s;  // offset from the phase start
  Key64 key;
  OpKind kind;
};

/// Open-loop traffic: Poisson arrivals at a fixed rate. Lookups read
/// bootstrap keys drawn by the workload's chooser; a write is, with equal
/// odds, a fresh-key insert or a delete of the key inserted `delete_lag`
/// inserts earlier, so the tree size stays about n. The fresh-key history
/// carries over from phase to phase.
class Traffic {
 public:
  Traffic(const Inputs& in, std::size_t delete_lag)
      : in_(in),
        rng_(in.seed ^ 0x747261666669ull),
        fresh_(in.data.pairs, in.seed ^ 0x6f6e6c696e65ull),
        delete_lag_(delete_lag) {}

  std::vector<Op> Phase(double rate, double duration_s, double write_share) {
    HBTREE_TRACE_SPAN("input.online", "hbbench");
    std::vector<Op> ops;
    ops.reserve(static_cast<std::size_t>(rate * duration_s * 1.05) + 16);
    double t = 0;
    for (;;) {
      t += -std::log(1.0 - rng_.NextDouble()) / rate;
      if (t >= duration_s) break;
      if (rng_.NextDouble() >= write_share) {
        ops.push_back({t, in_.pool[cursor_++ % in_.pool.size()],
                       OpKind::kLookup});
      } else if (rng_.Next() % 2 == 0 &&
                 inserted_.size() - deleted_ > delete_lag_) {
        ops.push_back({t, inserted_[deleted_++], OpKind::kDelete});
      } else {
        inserted_.push_back(fresh_.Next());
        ops.push_back({t, inserted_.back(), OpKind::kInsert});
      }
    }
    return ops;
  }

  /// Forgets the writes of ops a phase generated but never submitted (an
  /// aborted probe), newest first, so the history matches the server.
  void Unsubmitted(const std::vector<Op>& ops, std::size_t submitted) {
    for (std::size_t i = ops.size(); i > submitted; --i) {
      if (ops[i - 1].kind == OpKind::kInsert) inserted_.pop_back();
      if (ops[i - 1].kind == OpKind::kDelete) --deleted_;
    }
  }

  /// Fresh keys still live, and a recent slice of deleted ones.
  std::vector<Key64> Live() const {
    return {inserted_.begin() + static_cast<std::ptrdiff_t>(deleted_),
            inserted_.end()};
  }
  std::vector<Key64> RecentlyDeleted(std::size_t count) const {
    const std::size_t from = deleted_ > count ? deleted_ - count : 0;
    return {inserted_.begin() + static_cast<std::ptrdiff_t>(from),
            inserted_.begin() + static_cast<std::ptrdiff_t>(deleted_)};
  }

 private:
  const Inputs& in_;
  Rng rng_;
  FreshKeys fresh_;
  std::size_t delete_lag_;
  std::size_t cursor_ = 0;
  std::vector<Key64> inserted_;
  std::size_t deleted_ = 0;
};

/// One submitted op awaiting its future.
struct Pending {
  std::future<ReadResult<Key64>> read;
  std::future<UpdateResult> update;
  Clock::time_point due;
  Key64 key = 0;
  bool is_read = true;
  bool timed = false;  // due inside the measured window
};

struct OpenLoopResult {
  std::vector<double> read_ms, update_ms;  // due -> harvested, timed ops
  std::vector<double> lag_ms;              // submit start - due, timed ops
  std::vector<double> submit_us;           // inside Submit*, timed ops
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  std::size_t inflight_end = 0, inflight_max = 0;
  double harvest_period_us = 0;
  bool aborted = false;
  double wall_s = 0;
};

/// Polls every in-flight future with a zero timeout, in no particular order
/// (harvesting in submission order would make a fast read wait behind a slow
/// update that was submitted before it), and records each op's latency from
/// its due time when it resolves.
class Harvester {
 public:
  Harvester(std::uint64_t value_seed, OpenLoopResult* out)
      : value_seed_(value_seed), out_(out), thread_([this] { Loop(); }) {}
  ~Harvester() { Finish(); }
  Harvester(const Harvester&) = delete;
  Harvester& operator=(const Harvester&) = delete;

  /// Hands over (and clears) a batch of submitted ops.
  void Add(std::vector<Pending>* ops) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Pending& op : *ops) inbox_.push_back(std::move(op));
    ops->clear();
  }
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Waits until every added op has resolved, then joins.
  void Finish() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    HBTREE_TRACE_THREAD_NAME("hbbench.harvest");
#if defined(__linux__)
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // sub-50 µs polling
#endif
    std::vector<Pending> pending;
    std::uint64_t passes = 0;
    const Clock::time_point first = Clock::now();
    for (;;) {
      const bool last = done_.load(std::memory_order_acquire);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Pending& op : inbox_) pending.push_back(std::move(op));
        inbox_.clear();
      }
      if (last && pending.empty()) break;
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < pending.size();) {
        Pending& op = pending[i];
        const bool ready =
            op.is_read ? op.read.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready
                       : op.update.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready;
        if (!ready) {
          ++i;
          continue;
        }
        Complete(op, now);
        op = std::move(pending.back());
        pending.pop_back();
      }
      ++passes;
      std::this_thread::sleep_for(kHarvestSleep);
    }
    out_->harvest_period_us =
        passes > 0 ? Seconds(first, Clock::now()) * 1e6 / passes : 0;
  }

  void Complete(Pending& op, Clock::time_point now) {
    const double ms = Seconds(op.due, now) * 1e3;
    if (op.is_read) {
      const ReadResult<Key64> r = op.read.get();
      if (!r.status.ok()) {
        ++out_->failed;
      } else if (!r.lookup.found ||
                 r.lookup.value != ValueOf(op.key, value_seed_)) {
        if (out_->wrong++ < 5) {
          std::fprintf(stderr, "check failed: served lookup (key %" PRIu64
                       ")\n", op.key);
        }
      }
      if (op.timed) out_->read_ms.push_back(ms);
    } else {
      if (!op.update.get().status.ok()) ++out_->failed;
      if (op.timed) out_->update_ms.push_back(ms);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::uint64_t value_seed_;
  OpenLoopResult* out_;
  std::mutex mutex_;
  std::vector<Pending> inbox_;  // guarded by mutex_
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::thread thread_;  // last: starts after every member it uses
};

/// Replays `ops` against the server on their schedule. Ops due in the first
/// `warm_s` seconds are not measured. With `abort_after_ms` > 0 the phase
/// stops submitting once the generator lags or the backlog exceeds that many
/// milliseconds of traffic (a probe that can only fail).
OpenLoopResult RunOpenLoop(Server<Key64>& server, const std::vector<Op>& ops,
                           double rate, double warm_s, double timed_s,
                           double abort_after_ms, std::uint64_t value_seed) {
  OpenLoopResult out;
  const std::size_t abort_backlog =
      static_cast<std::size_t>(rate * abort_after_ms / 1e3);
  {
    Harvester harvester(value_seed, &out);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(warm_s + timed_s));
    bool end_seen = false;
    std::uint64_t submitted = 0;
    std::vector<Pending> batch;  // submitted since the last hand-over
    Clock::time_point woke = t0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(op.due_s));
      if (due >= end && !end_seen) {
        harvester.Add(&batch);
        std::this_thread::sleep_until(end);
        out.inflight_end = submitted - harvester.completed();
        end_seen = true;
      }
      if (Clock::now() < due) {
        // Everything due so far is submitted: hand it over and sleep until
        // the next op is due, waking at most once per tick (ops due within
        // a tick go out together; their latency still counts from due).
        harvester.Add(&batch);
        std::this_thread::sleep_until(std::max(due, woke + kGeneratorTick));
        woke = Clock::now();
      }
      Pending p;
      p.due = due;
      p.key = op.key;
      p.is_read = op.kind == OpKind::kLookup;
      p.timed = op.due_s >= warm_s && op.due_s < warm_s + timed_s;
      const Clock::time_point before = Clock::now();
      auto submit = [&] {
        switch (op.kind) {
          case OpKind::kLookup:
            p.read = server.SubmitLookup(op.key);
            break;
          case OpKind::kInsert:
            p.update = server.SubmitUpdate(
                {UpdateQuery<Key64>::Kind::kInsert,
                 {op.key, ValueOf(op.key, value_seed)}});
            break;
          case OpKind::kDelete:
            p.update = server.SubmitUpdate(
                {UpdateQuery<Key64>::Kind::kDelete, {op.key, 0}});
            break;
        }
      };
      if (i % kSubmitSample == 0) {
        HBTREE_TRACE_SPAN_ARG("serve.submit", "hbbench", "op", i);
        submit();
      } else {
        submit();
      }
      const Clock::time_point after = Clock::now();
      const double lag_ms = Seconds(due, before) * 1e3;
      if (p.timed) {
        out.lag_ms.push_back(lag_ms);
        out.submit_us.push_back(Seconds(before, after) * 1e6);
      }
      batch.push_back(std::move(p));
      ++submitted;
      const std::size_t inflight = submitted - harvester.completed();
      out.inflight_max = std::max(out.inflight_max, inflight);
      if (abort_after_ms > 0 &&
          (lag_ms > abort_after_ms || inflight > abort_backlog)) {
        out.aborted = true;
        break;
      }
    }
    harvester.Add(&batch);
    if (!end_seen && !out.aborted) {
      std::this_thread::sleep_until(end);
      out.inflight_end = submitted - harvester.completed();
    }
    out.attempted = submitted;
    harvester.Finish();
    out.wall_s = Seconds(t0, Clock::now());
  }
  return out;
}

/// Serving counters over one phase (ServeStats are lifetime totals).
struct ServeDelta {
  serve::ServeStats before;
  serve::ServeStats after;
  obs::MetricsSnapshot window;
  double Diff(std::uint64_t serve::ServeStats::*field) const {
    return static_cast<double>(after.*field - before.*field);
  }
  double Diff(double serve::ServeStats::*field) const {
    return after.*field - before.*field;
  }
  double QueueWaitP99Ms() const {
    for (const auto& [name, summary] : window.histograms) {
      if (name == "serve.queue_wait") return summary.p99_us / 1e3;
    }
    return 0;
  }
};

struct Phase {
  OpenLoopResult result;
  ServeDelta delta;
};

Phase RunPhase(Server<Key64>& server, Traffic& traffic, double rate,
               double write_share, double warm_s, double timed_s,
               double abort_after_ms, std::uint64_t value_seed) {
  const std::vector<Op> ops = traffic.Phase(rate, warm_s + timed_s, write_share);
  Phase phase;
  phase.delta.before = server.Stats();
  server.metrics().CollectWindow();
  phase.result = RunOpenLoop(server, ops, rate, warm_s, timed_s,
                             abort_after_ms, value_seed);
  traffic.Unsubmitted(ops, phase.result.attempted);
  phase.delta.window = server.metrics().CollectWindow();
  phase.delta.after = server.Stats();
  return phase;
}

/// A max-rate probe passes when reads, updates and the generator all stay
/// within the latency limit at p99, nothing failed, and the backlog at the
/// end of the window is no more than the limit's worth of traffic. Prints
/// the verdict.
bool MeetsLimits(const OpenLoopResult& r, double rate) {
  const double read_p99 = Summarize(r.read_ms).p99;
  const double update_p99 = Summarize(r.update_ms).p99;
  const double lag_p99 = Summarize(r.lag_ms).p99;
  const bool ok = !r.aborted && r.failed == 0 && r.wrong == 0 &&
                  read_p99 <= kLimitMs && update_p99 <= kLimitMs &&
                  lag_p99 <= kLimitMs &&
                  static_cast<double>(r.inflight_end) <= rate * kLimitMs / 1e3;
  std::printf("  %.0f ops/s: %s (read p99 %.3g ms, update p99 %.3g ms, "
              "lag p99 %.3g ms, in flight %zu%s)\n",
              rate, ok ? "meets the limits" : "misses the limits", read_p99,
              update_p99, lag_p99, r.inflight_end,
              r.aborted ? ", aborted" : "");
  return ok;
}

void Account(const OpenLoopResult& r, Outcome* outcome) {
  outcome->attempted += r.attempted;
  outcome->failed += r.failed;
  outcome->wrong += r.wrong;
}

void RunOnline(Index& ix, const Inputs& in, const Workload& w,
               const Plan& plan, Report* rep, Outcome* outcome) {
  HBTREE_TRACE_SPAN("serve", "hbbench");
  Server<Key64>& server = *ix.server;
  Traffic traffic(in, plan.delete_lag);
  const double read_rate = w.read_rate * plan.rate_scale;
  const double mixed_rate = w.mixed_rate * plan.rate_scale;
  const std::uint64_t seed = in.seed;

  Phase read;
  {
    HBTREE_TRACE_SPAN("serve.read_fixed", "hbbench");
    read = RunPhase(server, traffic, read_rate, 0.0, plan.warm_s, plan.read_s,
                    0, seed);
  }
  Account(read.result, outcome);
  Phase mixed;
  {
    HBTREE_TRACE_SPAN("serve.mixed_fixed", "hbbench");
    mixed = RunPhase(server, traffic, mixed_rate, 0.5, plan.warm_s,
                     plan.mixed_s, 0, seed);
  }
  Account(mixed.result, outcome);

  // Highest rate meeting the limits: bisection over [R, 6R] from the fixed
  // mixed rate R, or over [R/4, R] when R itself misses them.
  std::printf("max-rate search from the mixed phase:\n");
  double lo = mixed_rate, hi = 6 * mixed_rate;
  if (!MeetsLimits(mixed.result, mixed_rate)) {
    lo = mixed_rate / 4;
    hi = mixed_rate;
  }
  for (int p = 0; p < plan.probes; ++p) {
    const double rate = (lo + hi) / 2;
    Phase probe;
    {
      HBTREE_TRACE_SPAN_ARG("serve.probe", "hbbench", "rate", rate);
      probe = RunPhase(server, traffic, rate, 0.5, plan.probe_warm_s,
                       plan.probe_s, 5 * kLimitMs, seed);
    }
    Account(probe.result, outcome);
    (MeetsLimits(probe.result, rate) ? lo : hi) = rate;
  }

  {
    // Blocking lookups before shutdown: fresh keys still live must be found
    // with their values, recently deleted ones must be gone.
    HBTREE_TRACE_SPAN("serve.verify", "hbbench");
    const std::vector<Key64> live = traffic.Live();
    const std::vector<Key64> gone = traffic.RecentlyDeleted(live.size());
    std::vector<std::future<ReadResult<Key64>>> futures;
    for (Key64 key : live) futures.push_back(server.SubmitLookup(key));
    for (Key64 key : gone) futures.push_back(server.SubmitLookup(key));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const ReadResult<Key64> r = futures[i].get();
      const bool should_exist = i < live.size();
      const Key64 key = should_exist ? live[i] : gone[i - live.size()];
      if (!r.status.ok()) {
        outcome->Mismatch("verify lookup failed", key);
      } else if (r.lookup.found != should_exist ||
                 (should_exist && r.lookup.value != ValueOf(key, seed))) {
        outcome->Mismatch(should_exist ? "live fresh key missing"
                                       : "deleted fresh key present",
                          key);
      }
    }
    std::printf("verified %zu live and %zu deleted fresh keys\n", live.size(),
                gone.size());
  }
  {
    HBTREE_TRACE_SPAN("serve.shutdown", "hbbench");
    server.Shutdown();
  }
  const serve::ServeStats total = server.Stats();

  const LatencyBlock reads = Summarize(read.result.read_ms);
  const LatencyBlock updates = Summarize(mixed.result.update_ms);
  const LatencyBlock mixed_reads = Summarize(mixed.result.read_ms);
  PrintBlock("read (read-only phase)", "ms", reads);
  PrintBlock("update (mixed phase)", "ms", updates);
  PrintBlock("read (mixed phase)", "ms", mixed_reads);
  PrintBlock("submit (read-only)", "us", Summarize(read.result.submit_us));
  PrintBlock("lag (mixed phase)", "ms", Summarize(mixed.result.lag_ms));
  rep->Set("read_p50_ms", reads.p50, "ms");
  rep->Set("serve.read_p99_ms", reads.p99, "ms");
  rep->Set("serve.update_p50_ms", updates.p50, "ms");
  rep->Set("serve.update_p99_ms", updates.p99, "ms");
  rep->Set("serve.max_rate_ops_s", lo, "ops/s");

  const LatencyBlock submit = Summarize(read.result.submit_us);
  rep->Set("serve.submit_us_p50", submit.p50, "us");
  rep->Set("serve.submit_us_p99", submit.p99, "us");
  const ServeDelta& rd = read.delta;
  const double buckets = rd.Diff(&serve::ServeStats::read_buckets);
  rep->Set("serve.bucket_fill_frac",
           buckets > 0
               ? rd.Diff(&serve::ServeStats::lookups) / buckets / kServeBucket
               : 0,
           "ratio");
  rep->Set("serve.read_buckets_per_s", buckets / read.result.wall_s, "1/s");
  rep->Set("serve.queue_wait_p99_ms", rd.QueueWaitP99Ms(), "ms");
  rep->Set("serve.model_us_per_read",
           rd.Diff(&serve::ServeStats::sim_pipeline_us) /
               std::max(1.0, rd.Diff(&serve::ServeStats::lookups)),
           "us");
  const ServeDelta& md = mixed.delta;
  rep->Set("serve.mixed_read_p99_ms", mixed_reads.p99, "ms");
  rep->Set("serve.update_batches_per_s",
           md.Diff(&serve::ServeStats::update_batches) / mixed.result.wall_s,
           "1/s");
  rep->Set("serve.delta_syncs", md.Diff(&serve::ServeStats::delta_syncs),
           "count");
  rep->Set("serve.full_syncs", md.Diff(&serve::ServeStats::full_syncs),
           "count");
  rep->Set("serve.model_us_per_update",
           md.Diff(&serve::ServeStats::sim_update_us) /
               std::max(1.0, md.Diff(&serve::ServeStats::updates)),
           "us");
  rep->Set("serve.modelled_ops_per_s", total.modelled_ops_per_second, "ops/s");
  rep->Set("serve.cpu_fallback_buckets",
           static_cast<double>(total.cpu_fallback_buckets), "count");
  rep->Set("serve.breaker_opens", static_cast<double>(total.breaker_opens),
           "count");
  const LatencyBlock lag_read = Summarize(read.result.lag_ms);
  const LatencyBlock lag_mixed = Summarize(mixed.result.lag_ms);
  rep->Set("load.lag_p99_ms", std::max(lag_read.p99, lag_mixed.p99), "ms");
  rep->Set("load.harvest_period_us",
           std::max(read.result.harvest_period_us,
                    mixed.result.harvest_period_us),
           "us");
  rep->Set("load.inflight_max",
           static_cast<double>(std::max(read.result.inflight_max,
                                        mixed.result.inflight_max)),
           "count");
}

// ------------------------------------------------------------------- tracing

#if HBTREE_OBS_TRACING
/// Self time (span minus the part its child spans cover) of every benchmark
/// span on the main thread, aggregated by span name. Spans recorded inside
/// the library are not layers of the benchmark and are skipped.
void ReportTrace(Report* rep) {
  obs::TraceSession::Stop();
  const std::vector<obs::TraceEvent> events = obs::TraceSession::Snapshot();
  int main_tid = -1;
  for (const auto& [tid, name] : obs::TraceSession::ThreadNames()) {
    if (name == "hbbench.main") main_tid = tid;
  }
  std::vector<const obs::TraceEvent*> spans;
  for (const obs::TraceEvent& e : events) {
    if (e.pid == obs::TraceSession::kWallPid && e.ph == 'X' &&
        e.tid == main_tid && std::strcmp(e.cat, "hbbench") == 0) {
      spans.push_back(&e);
    }
  }
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    return a->ts_us < b->ts_us || (a->ts_us == b->ts_us && a->dur_us > b->dur_us);
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;  // indices of enclosing spans
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i]->dur_us;
    while (!open.empty() && spans[i]->ts_us >= spans[open.back()]->ts_us +
                                                   spans[open.back()]->dur_us) {
      open.pop_back();
    }
    if (!open.empty()) self[open.back()] -= spans[i]->dur_us;
    open.push_back(i);
  }
  std::map<std::string, double> by_layer;
  double root_us = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i]->name] += self[i];
    if (std::strcmp(spans[i]->name, "workload") == 0) root_us += spans[i]->dur_us;
  }
  const double covered = root_us - by_layer["workload"];
  std::printf("layer self times (main thread, %zu spans):\n", spans.size());
  for (const auto& [name, us] : by_layer) {
    std::printf("  %-24s %10.3f s %6.2f%%\n", name.c_str(), us / 1e6,
                root_us > 0 ? 100 * us / root_us : 0);
  }
  rep->Set("trace.coverage_frac", root_us > 0 ? covered / root_us : 0, "ratio");
  for (const char* layer :
       {"hybrid.build", "hybrid.calibrate", "cpubtree.build", "serve.create",
        "hybrid.lookup", "cpubtree.measure", "hybrid.update", "hybrid.range",
        "restore", "check", "serve.read_fixed", "serve.mixed_fixed",
        "serve.probe", "serve.verify", "serve", "teardown"}) {
    rep->Set(std::string("selftime.") + layer + "_s", by_layer[layer] / 1e6,
             "s");
  }

  // The serving stage waterfall: SpanAggregator groups spans recorded on the
  // server's shard threads and slot model tracks; the offline pipeline's
  // model spans (track block 0) have no group and are left out.
  const obs::StageWaterfall waterfall = obs::SpanAggregator::FromSession();
  std::map<std::string, obs::StageStats> stages;
  double stage_total = 0;
  for (const obs::StageGroup& group : waterfall.groups) {
    for (const auto& [stage, stats] : group.stages) {
      stages[stage].count += stats.count;
      stages[stage].total_us += stats.total_us;
      stage_total += stats.total_us;
    }
  }
  std::printf("serving stage waterfall:\n");
  for (const char* stage : {"admission_wait", "fill_window", "pre_descend",
                            "h2d", "kernel", "d2h", "merge", "commit"}) {
    const obs::StageStats& s = stages[stage];
    const double share = stage_total > 0 ? s.total_us / stage_total : 0;
    std::printf("  %-16s n=%-8" PRIu64 " mean %10.2f us  share %6.2f%%\n",
                stage, s.count, s.mean_us(), 100 * share);
    rep->Set(std::string("serve.stage.") + stage + ".mean_us", s.mean_us(),
             "us");
    rep->Set(std::string("serve.stage.") + stage + ".share", share, "ratio");
  }
}
#endif

// ---------------------------------------------------------------------- main

struct RunResult {
  bool correct = false;
  Outcome outcome;
  Report report;
  std::string constants;
  std::string rates;
};

RunResult RunWorkload(const Workload& w, std::uint64_t seed, double seconds,
                      bool smoke) {
  HBTREE_TRACE_SPAN("workload", "hbbench");
  const Plan plan = MakePlan(w, seconds, smoke);
  RunResult run;
  std::printf("== workload %s: 2^%d keys, seed %" PRIu64 "\n", w.name,
              plan.log2_keys, seed);
  const Inputs in = MakeInputs(w, plan, seed);

  // Set-up runs several times; the last index is kept for the run.
  std::vector<SetupTimes> times(kSetups);
  std::unique_ptr<Index> ix;
  for (SetupTimes& t : times) {
    {
      HBTREE_TRACE_SPAN("teardown", "hbbench");
      ix.reset();
    }
    ix = Setup(in, &t);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return Median(v);
  };
  run.report.Set("setup_s", median_of(&SetupTimes::total_s), "s");
  run.report.Set("index_mb", median_of(&SetupTimes::heap_mb), "MiB");
  run.constants = ModelConstants(ix->sim.spec);
  run.rates = CalibratedRates(*ix);

  RunOffline(*ix, in, plan, &run.report, &run.outcome);
  RunOnline(*ix, in, w, plan, &run.report, &run.outcome);

  run.report.Set("hybrid.build_s", median_of(&SetupTimes::build_s), "s");
  run.report.Set("hybrid.calibrate_s", median_of(&SetupTimes::calibrate_s),
                 "s");
  run.report.Set("cpubtree.build_s", median_of(&SetupTimes::cpu_build_s), "s");
  run.report.Set("serve.create_s", median_of(&SetupTimes::serve_s), "s");
  run.correct = run.outcome.wrong == 0;
  {
    HBTREE_TRACE_SPAN("teardown", "hbbench");
    ix.reset();
  }
  return run;
}

int Main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  HBTREE_TRACE_THREAD_NAME("hbbench.main");
  const bool smoke = args.Has("smoke");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 1));
  const double seconds = args.GetDouble("seconds", 20);
  const std::string name = args.GetString("workload", "");
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (smoke || name == w.name) selected.push_back(&w);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown --workload '%s' (uniform, zipf)\n",
                 name.c_str());
    return 2;
  }
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // precise open-loop pacing
#endif
  int status = 0;
  for (const Workload* w : selected) {
    HBTREE_TRACE_ONLY(obs::TraceSession::Start();)
    RunResult run = RunWorkload(*w, seed, seconds, smoke);
    HBTREE_TRACE_ONLY(ReportTrace(&run.report);
                      if (args.Has("trace_out")) {
                        obs::TraceSession::WriteChromeJson(
                            args.GetString("trace_out", ""));
                      })
    std::printf("model constants (fingerprint %s):\n%s%s",
                Fnv1a(run.constants + run.rates).c_str(),
                run.constants.c_str(), run.rates.c_str());
    std::printf("metrics:\n");
    run.report.Print();
    std::printf("correct=%s attempted=%" PRIu64 " failed=%" PRIu64
                " wrong=%" PRIu64 "\n",
                run.correct ? "true" : "false", run.outcome.attempted,
                run.outcome.failed, run.outcome.wrong);
    std::printf(
        "HBBENCH_RESULT {\"workload\":\"%s\",\"seed\":%" PRIu64
        ",\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
        ",\"model_config\":\"%s\",\"fingerprint\":\"%s\",\"metrics\":%s}\n",
        w->name, seed, run.correct ? "true" : "false", run.outcome.attempted,
        run.outcome.failed, Fnv1a(run.constants).c_str(),
        Fnv1a(run.constants + run.rates).c_str(), run.report.Json().c_str());
    std::fflush(stdout);
    if (!run.correct || run.outcome.failed > 0) status = 1;
  }
  return status;
}

}  // namespace
}  // namespace hbtree::hbbench

int main(int argc, char** argv) { return hbtree::hbbench::Main(argc, argv); }
