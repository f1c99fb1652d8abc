// Stress and correctness tests for the *sharded* serving topology
// (num_shards > 1, num_read_workers > 1). The single-shard behaviors
// live in serve_stress_test.cc; this suite covers what sharding adds:
// key-range routing, per-shard read-your-writes, cross-shard range
// continuation, per-shard metric series, the capacity validation that
// rejects topologies the device arena cannot back, the SLOs Shutdown()
// evaluates and the segment temperatures it classifies (this suite
// compiles tracing in, and with it heat). Written to run cleanly under
// ASan and TSan (see the
// asan/tsan CMake presets): all cross-thread bookkeeping goes through
// atomics and futures.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace hbtree {
namespace {

// Bootstrap keys are the even numbers 2..2*kBootstrap, so every shard
// owns a quarter of them and the odd numbers in between are free for
// dynamic inserts that route to interior shards (keys above the
// bootstrap range would all land in the last shard).
constexpr std::uint64_t kBootstrap = 16 * 1024;

Key64 StableValue(std::uint64_t key) { return key * 5 + 3; }
Key64 DynamicValue(std::uint64_t key) { return key * 2 + 11; }

std::vector<KeyValue<Key64>> BootstrapDataset() {
  std::vector<KeyValue<Key64>> data;
  data.reserve(kBootstrap);
  for (std::uint64_t i = 1; i <= kBootstrap; ++i) {
    data.push_back(KeyValue<Key64>{2 * i, StableValue(2 * i)});
  }
  return data;
}

serve::ServerOptions ShardedOptions(int shards = 4, int read_workers = 2) {
  serve::ServerOptions options;
  options.num_shards = shards;
  options.num_read_workers = read_workers;
  // Small buckets/batches so many buckets dispatch and many epochs swap
  // per shard; fixed CPU rates keep the modelled costs deterministic.
  options.bucket_size = 1024;
  options.cpu_queries_per_us = 20.0;
  options.min_sub_bucket = 64;
  options.update_batch_size = 1024;
  return options;
}

// Reads gauge `name` from `snapshot` into `value`; false when absent.
bool FindGauge(const obs::MetricsSnapshot& snapshot, const std::string& name,
               double* value) {
  for (const auto& [gauge, v] : snapshot.gauges) {
    if (gauge == name) {
      *value = v;
      return true;
    }
  }
  return false;
}

UpdateQuery<Key64> Insert(std::uint64_t key, Key64 value) {
  return UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kInsert,
                            KeyValue<Key64>{key, value}};
}

UpdateQuery<Key64> Delete(std::uint64_t key) {
  return UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kDelete,
                            KeyValue<Key64>{key, 0}};
}

// Differential test against std::map: rounds of randomized inserts,
// overwrites, and deletes spread over the whole key range (so every
// shard sees updates), each round committed and then cross-checked with
// point lookups and range scans — including scans that start just below
// a shard boundary and continue into the next shard. Runs serially
// between rounds so the reference is exact; the concurrency is inside
// the server (4 shards x 2 read workers + 4 update workers).
TEST(ServeShardStress, DifferentialVsStdMapAcrossShards) {
  constexpr int kRounds = 3;
  constexpr int kUpdatesPerRound = 2048;
  constexpr int kProbesPerRound = 1500;
  constexpr int kRangeLen = 24;

  auto data = BootstrapDataset();
  Status status;
  auto server_ptr =
      serve::Server<Key64>::Create(ShardedOptions(), data, &status);
  ASSERT_NE(server_ptr, nullptr) << status.message();
  serve::Server<Key64>& server = *server_ptr;

  std::map<std::uint64_t, Key64> reference;
  for (const auto& kv : data) reference[kv.key] = kv.value;

  // The shard bounds Init() derives: the key at index n*i/4 starts
  // shard i, so ranges straddling these keys exercise cross-shard
  // continuation.
  const std::size_t n = data.size();
  const std::uint64_t bounds[] = {data[n / 4].key, data[n / 2].key,
                                  data[3 * n / 4].key};

  std::mt19937_64 rng(7);
  for (int round = 0; round < kRounds; ++round) {
    // One round of updates, mirrored into the reference in submission
    // order (per-key order is preserved: a key always routes to the
    // same shard's FIFO update lane).
    std::vector<std::future<serve::UpdateResult>> pending;
    pending.reserve(kUpdatesPerRound);
    for (int i = 0; i < kUpdatesPerRound; ++i) {
      const std::uint64_t key = 1 + rng() % (2 * kBootstrap + 64);
      if (rng() % 3 == 0 && !reference.empty()) {
        pending.push_back(server.SubmitUpdate(Delete(key)));
        reference.erase(key);
      } else {
        // Inserting a present key is a duplicate no-op in the tree
        // (regular_btree.h), so the reference only takes the value when
        // the key is absent — emplace, not operator[].
        const Key64 value = DynamicValue(key) + round;
        pending.push_back(server.SubmitUpdate(Insert(key, value)));
        reference.emplace(key, value);
      }
    }
    for (auto& f : pending) ASSERT_TRUE(f.get().status.ok());

    // Point probes across the whole range (hits and misses).
    std::vector<std::uint64_t> probe_keys;
    std::vector<std::future<serve::ReadResult<Key64>>> lookups;
    for (int i = 0; i < kProbesPerRound; ++i) {
      const std::uint64_t key = 1 + rng() % (2 * kBootstrap + 128);
      probe_keys.push_back(key);
      lookups.push_back(server.SubmitLookup(key));
    }
    for (int i = 0; i < kProbesPerRound; ++i) {
      auto result = lookups[i].get();
      ASSERT_TRUE(result.status.ok());
      auto it = reference.find(probe_keys[i]);
      if (it == reference.end()) {
        ASSERT_FALSE(result.lookup.found) << "key " << probe_keys[i];
      } else {
        ASSERT_TRUE(result.lookup.found) << "key " << probe_keys[i];
        ASSERT_EQ(result.lookup.value, it->second) << "key " << probe_keys[i];
      }
    }

    // Boundary-crossing range scans: start a few keys below each shard
    // bound so the scan pins one shard's snapshot, exhausts its
    // segment, and continues into the next shard. With no concurrent
    // updates the concatenation must match the reference exactly.
    for (const std::uint64_t bound : bounds) {
      const std::uint64_t start = bound > 16 ? bound - 16 : 1;
      auto range = server.SubmitRange(start, kRangeLen).get();
      ASSERT_TRUE(range.status.ok());
      auto it = reference.lower_bound(start);
      std::size_t expected = 0;
      for (; it != reference.end() && expected < kRangeLen; ++it, ++expected) {
        ASSERT_LT(expected, range.range.size());
        ASSERT_EQ(range.range[expected].key, it->first);
        ASSERT_EQ(range.range[expected].value, it->second);
      }
      ASSERT_EQ(range.range.size(), expected);
    }
  }

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  serve::ServeStats stats = server.Stats();
  EXPECT_EQ(stats.num_shards, 4);
  EXPECT_EQ(stats.num_read_workers, 2);
  EXPECT_EQ(stats.updates,
            static_cast<std::uint64_t>(kRounds) * kUpdatesPerRound);
}

// A range asking for more pairs than the tree holds is a valid request:
// the reply grows with the pairs found, not with `max_matches`, so it
// resolves with every bootstrap pair across all four shards, in key
// order.
TEST(ServeShardStress, RangeBeyondTheKeyCountReturnsEveryPair) {
  auto data = BootstrapDataset();
  Status status;
  auto server_ptr =
      serve::Server<Key64>::Create(ShardedOptions(), data, &status);
  ASSERT_NE(server_ptr, nullptr) << status.message();
  serve::Server<Key64>& server = *server_ptr;

  const serve::ReadResult<Key64> result =
      server.SubmitRange(1, std::numeric_limits<int>::max()).get();
  ASSERT_TRUE(result.status.ok()) << result.status.message();
  ASSERT_EQ(result.range.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(result.range[i].key, data[i].key) << "pair " << i;
    ASSERT_EQ(result.range[i].value, data[i].value) << "pair " << i;
  }

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
}

// Read-your-writes per client within a shard, on the sharded topology:
// each writer thread owns a disjoint lane of odd keys swept across the
// whole bootstrap range, so consecutive writes of one client land in
// different shards — after an update's future resolves, a lookup for
// that key (routing to the shard that committed it) must observe it.
// Reader threads concurrently verify the untouched even keys stay exact
// in every shard.
TEST(ServeShardStress, ConcurrentChurnReadYourWritesPerClient) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 250;
  constexpr int kReaders = 2;
  constexpr int kReadsPerReader = 1200;

  auto data = BootstrapDataset();
  Status status;
  auto server_ptr =
      serve::Server<Key64>::Create(ShardedOptions(), data, &status);
  ASSERT_NE(server_ptr, nullptr) << status.message();
  serve::Server<Key64>& server = *server_ptr;

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        // Odd keys, disjoint per writer, striding the full key range:
        // op i of writer w sits in the gap before bootstrap key
        // 2*(w + kWriters*i + 1).
        const std::uint64_t key =
            2 * (static_cast<std::uint64_t>(w) + kWriters * i) + 1;
        ASSERT_TRUE(
            server.SubmitUpdate(Insert(key, DynamicValue(key))).get()
                .status.ok());
        auto after_insert = server.SubmitLookup(key).get().lookup;
        ASSERT_TRUE(after_insert.found)
            << "own insert of " << key << " not visible after commit";
        ASSERT_EQ(after_insert.value, DynamicValue(key));
        if (i % 2 == 0) {
          ASSERT_TRUE(server.SubmitUpdate(Delete(key)).get().status.ok());
          ASSERT_FALSE(server.SubmitLookup(key).get().lookup.found)
              << "own delete of " << key << " not visible after commit";
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(100 + r);
      for (int i = 0; i < kReadsPerReader; ++i) {
        const std::uint64_t key = 2 * (1 + rng() % kBootstrap);
        auto result = server.SubmitLookup(key).get().lookup;
        ASSERT_TRUE(result.found) << "bootstrap key " << key;
        ASSERT_EQ(result.value, StableValue(key));
      }
    });
  }

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  serve::ServeStats stats = server.Stats();
  EXPECT_EQ(stats.shed_reads, 0u);
  EXPECT_EQ(stats.shed_updates, 0u);
  EXPECT_EQ(stats.faults_injected, 0u);
  // Per-shard sequences: total batches spread over 4 shards, and the
  // summed epoch matches the summed commit count.
  EXPECT_EQ(stats.epoch, stats.update_batches);
}

// Every shard publishes its own serve.shard<N>.* metric series; the
// sharded sums must reconcile with the global serve.* counters, and the
// per-op admission-wait histogram must have recorded every read.
TEST(ServeShardStress, PerShardMetricsReconcileWithGlobals) {
  constexpr int kShards = 4;
  constexpr int kLookups = 4000;

  auto data = BootstrapDataset();
  Status status;
  auto server_ptr =
      serve::Server<Key64>::Create(ShardedOptions(kShards), data, &status);
  ASSERT_NE(server_ptr, nullptr) << status.message();
  serve::Server<Key64>& server = *server_ptr;

  std::mt19937_64 rng(11);
  std::vector<std::future<serve::ReadResult<Key64>>> lookups;
  lookups.reserve(kLookups);
  for (int i = 0; i < kLookups; ++i) {
    lookups.push_back(server.SubmitLookup(2 * (1 + rng() % kBootstrap)));
  }
  for (auto& f : lookups) ASSERT_TRUE(f.get().status.ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        server.SubmitUpdate(Insert(2 * i + 1, DynamicValue(2 * i + 1)))
            .get()
            .status.ok());
  }
  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());

  const obs::MetricsSnapshot snapshot = server.metrics().Collect();
  std::uint64_t shard_buckets = 0;
  std::uint64_t shard_batches = 0;
  for (int i = 0; i < kShards; ++i) {
    const std::string buckets =
        obs::MetricsRegistry::ShardedName("serve", i, "read_buckets");
    const std::string batches =
        obs::MetricsRegistry::ShardedName("serve", i, "update_batches");
    // With lookups spread uniformly over the key space, every shard
    // must have dispatched something.
    EXPECT_GT(snapshot.counter_or(buckets), 0u) << buckets;
    shard_buckets += snapshot.counter_or(buckets);
    shard_batches += snapshot.counter_or(batches);
    // The per-shard queue-wait series exists (histograms are keyed by
    // the same naming scheme).
    const std::string wait =
        obs::MetricsRegistry::ShardedName("serve", i, "queue_wait");
    bool found = false;
    for (const auto& [name, summary] : snapshot.histograms) {
      if (name == wait) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << wait;
  }
  EXPECT_EQ(shard_buckets, snapshot.counter_or("serve.read_buckets"));
  EXPECT_EQ(shard_batches, snapshot.counter_or("serve.committed_batches"));

  // The global admission-wait histogram saw every op exactly once
  // (reads and updates both record their wait at dispatch).
  serve::ServeStats stats = server.Stats();
  EXPECT_EQ(stats.queue_wait.count,
            stats.lookups + stats.ranges + stats.updates);
  EXPECT_LE(stats.queue_wait.p50_us, stats.queue_wait.p99_us);
  // Modelled capacity is populated once buckets have dispatched.
  EXPECT_GT(stats.modelled_makespan_us, 0.0);
  EXPECT_GT(stats.modelled_ops_per_second, 0.0);
}

// Topologies the device or key space cannot back must fail at Create()
// with a typed, actionable status — not limp into degenerate serving.
TEST(ServeShardStress, RejectsUnbackedTopologies) {
  auto data = BootstrapDataset();

  {
    serve::ServerOptions options = ShardedOptions();
    options.num_shards = 0;
    Status status;
    EXPECT_EQ(serve::Server<Key64>::Create(options, data, &status), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  {
    serve::ServerOptions options = ShardedOptions();
    options.num_read_workers = 0;
    Status status;
    EXPECT_EQ(serve::Server<Key64>::Create(options, data, &status), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  {
    // More shards than bootstrap keys: no valid range partition exists.
    std::vector<KeyValue<Key64>> tiny(data.begin(), data.begin() + 8);
    serve::ServerOptions options = ShardedOptions(/*shards=*/16);
    Status status;
    EXPECT_EQ(serve::Server<Key64>::Create(options, tiny, &status), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("num_shards"), std::string::npos);
  }
  {
    // The I-segment mirror fits, but the per-worker bucket buffers do
    // not: 4 workers x 1M-key buckets need far more than the shrunken
    // arena. The message must name the read workers so the operator
    // knows which knob to turn.
    serve::ServerOptions options = ShardedOptions(/*shards=*/1,
                                                 /*read_workers=*/4);
    options.bucket_size = 1 << 20;
    options.platform.gpu.memory_bytes = 8ull << 20;
    Status status;
    EXPECT_EQ(serve::Server<Key64>::Create(options, data, &status), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kDeviceOom);
    EXPECT_NE(status.message().find("read worker"), std::string::npos);
  }
}

// Tail exemplars across a concurrent sharded run: with a live trace
// session, every shard's read workers offer their slow dispatches to the
// shared serve.read_latency reservoir. After the run the reservoir must
// be bounded, stamped with this session's trace id, carry resolvable
// span ids, and name real shards. This TU compiles with
// HBTREE_OBS_TRACING=1 (see CMakeLists), so under TSan this is the
// exemplar path's concurrency test.
TEST(ServeShardStress, ExemplarsReconcileAcrossShards) {
  constexpr int kShards = 4;
  constexpr int kClients = 4;
  constexpr int kLookupsPerClient = 1500;

  obs::TraceSession::Start();
  auto data = BootstrapDataset();
  Status status;
  auto server_ptr =
      serve::Server<Key64>::Create(ShardedOptions(kShards), data, &status);
  ASSERT_NE(server_ptr, nullptr) << status.message();
  serve::Server<Key64>& server = *server_ptr;

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(200 + c);
      std::vector<std::future<serve::ReadResult<Key64>>> window;
      for (int i = 0; i < kLookupsPerClient; ++i) {
        window.push_back(server.SubmitLookup(2 * (1 + rng() % kBootstrap)));
        if (window.size() == 256) {
          for (auto& f : window) ASSERT_TRUE(f.get().status.ok());
          window.clear();
        }
      }
      for (auto& f : window) ASSERT_TRUE(f.get().status.ok());
    });
  }
  for (auto& t : clients) t.join();
  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  obs::TraceSession::Stop();

  const obs::MetricsSnapshot snapshot = server.metrics().Collect();
  const obs::LatencySummary* read_latency = nullptr;
  for (const auto& [name, summary] : snapshot.histograms) {
    if (name == "serve.read_latency") read_latency = &summary;
  }
  ASSERT_NE(read_latency, nullptr);
  ASSERT_FALSE(read_latency->exemplars.empty())
      << "no exemplar captured despite live tracing";
  ASSERT_LE(read_latency->exemplars.size(),
            static_cast<std::size_t>(obs::LatencyHistogram::kMaxExemplars));
  for (const obs::BucketExemplar& be : read_latency->exemplars) {
    EXPECT_EQ(be.exemplar.trace_id, obs::TraceSession::trace_id());
    EXPECT_NE(be.exemplar.span_id, 0u);
    EXPECT_GE(be.exemplar.shard, 0);
    EXPECT_LT(be.exemplar.shard, kShards);
    EXPECT_GT(be.exemplar.wall_ns, 0u);
    EXPECT_LE(be.exemplar.wall_ns / 1e3, read_latency->max_us + 1e-9);
    // The span id resolves to a recorded dispatch span.
    bool resolved = false;
    for (const obs::TraceEvent& e : obs::TraceSession::Snapshot()) {
      if (e.span_id == be.exemplar.span_id) resolved = true;
    }
    EXPECT_TRUE(resolved) << "span " << be.exemplar.span_id;
  }
  obs::TraceSession::Clear();
}

// Shutdown() evaluates every SLO once, over the lifetime metrics, and
// publishes each one's bad-fraction and burn gauges with the values
// Stats() reports.
TEST(ServeShardStress, ShutdownPublishesEverySlo) {
  constexpr int kLookups = 600;

  auto data = BootstrapDataset();
  Status status;
  auto server_ptr = serve::Server<Key64>::Create(ShardedOptions(/*shards=*/2),
                                                 data, &status);
  ASSERT_NE(server_ptr, nullptr) << status.message();
  serve::Server<Key64>& server = *server_ptr;

  for (int i = 0; i < kLookups; ++i) {
    ASSERT_TRUE(
        server.SubmitLookup(2 * (1 + i % kBootstrap)).get().status.ok());
  }
  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());

  const serve::ServeStats stats = server.Stats();
  ASSERT_FALSE(stats.slos.empty());
  const obs::MetricsSnapshot snapshot = server.metrics().Collect();
  for (const obs::SloStatus& slo : stats.slos) {
    double bad_fraction = -1;
    double burn = -1;
    EXPECT_TRUE(FindGauge(snapshot, "slo." + slo.name + ".bad_fraction",
                          &bad_fraction))
        << slo.name;
    EXPECT_TRUE(FindGauge(snapshot, "slo." + slo.name + ".burn", &burn))
        << slo.name;
    EXPECT_EQ(bad_fraction, slo.bad_fraction) << slo.name;
    EXPECT_EQ(burn, slo.burn) << slo.name;
    EXPECT_FALSE(slo.burning()) << slo.name;
  }
  EXPECT_EQ(snapshot.counter_or("serve.lookups"),
            static_cast<std::uint64_t>(kLookups));
}

// A client that rolls a metrics window mid-run does not hide what came
// before it from the SLOs: reads shed for an expired deadline, then a
// window roll, then clean reads, and the shed_ratio SLO and its gauges
// still count every shed read.
TEST(ServeShardStress, ShedRatioSloCountsShedsBeforeAMidRunWindow) {
  constexpr int kShed = 40;
  constexpr int kServed = 400;

  auto data = BootstrapDataset();
  Status status;
  auto server_ptr = serve::Server<Key64>::Create(ShardedOptions(/*shards=*/2),
                                                 data, &status);
  ASSERT_NE(server_ptr, nullptr) << status.message();
  serve::Server<Key64>& server = *server_ptr;

  const auto expired = std::chrono::microseconds(-1);
  for (int i = 0; i < kShed; ++i) {
    EXPECT_EQ(server.SubmitLookup(2 * (1 + i), expired).get().status.code(),
              StatusCode::kDeadlineExceeded);
  }
  (void)server.metrics().CollectWindow();
  for (int i = 0; i < kServed; ++i) {
    ASSERT_TRUE(
        server.SubmitLookup(2 * (1 + i % kBootstrap)).get().status.ok());
  }
  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());

  const serve::ServeStats stats = server.Stats();
  ASSERT_EQ(stats.shed_reads, static_cast<std::uint64_t>(kShed));
  ASSERT_EQ(stats.lookups, static_cast<std::uint64_t>(kServed));
  const obs::SloStatus* shed_ratio = nullptr;
  for (const obs::SloStatus& slo : stats.slos) {
    if (slo.name == "shed_ratio") shed_ratio = &slo;
  }
  ASSERT_NE(shed_ratio, nullptr);
  const double expected = static_cast<double>(kShed) / (kShed + kServed);
  EXPECT_NEAR(shed_ratio->bad_fraction, expected, 1e-12);
  EXPECT_NEAR(shed_ratio->burn, expected / 0.01, 1e-9);
  EXPECT_TRUE(shed_ratio->burning());

  const obs::MetricsSnapshot snapshot = server.metrics().Collect();
  double bad_fraction = -1;
  double burn = -1;
  ASSERT_TRUE(
      FindGauge(snapshot, "slo.shed_ratio.bad_fraction", &bad_fraction));
  ASSERT_TRUE(FindGauge(snapshot, "slo.shed_ratio.burn", &burn));
  EXPECT_NEAR(bad_fraction, expected, 1e-12);
  EXPECT_NEAR(burn, expected / 0.01, 1e-9);
}

// Serving lookups reads no inner-pool node on the CPU: the device
// resolves every inner level, and serving never pre-descends. So after a
// lookups-only run every inner segment is cold, while the leaf segments
// that served the lookups are hot (the paper's I-/L-segment split).
TEST(ServeShardStress, LookupsLeaveTheInnerPoolColdAndALeafSegmentHot) {
  constexpr int kLookups = 2000;

  auto data = BootstrapDataset();
  Status status;
  auto server_ptr =
      serve::Server<Key64>::Create(ShardedOptions(), data, &status);
  ASSERT_NE(server_ptr, nullptr) << status.message();
  serve::Server<Key64>& server = *server_ptr;

  std::vector<std::future<serve::ReadResult<Key64>>> pending;
  pending.reserve(kLookups);
  for (int i = 0; i < kLookups; ++i) {
    pending.push_back(server.SubmitLookup(2 * (1 + (i * 7) % kBootstrap)));
  }
  for (auto& f : pending) ASSERT_TRUE(f.get().status.ok());
  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());

  const obs::HeatSection heat = server.Heat();
  const obs::PoolTemperature* inner = nullptr;
  const obs::PoolTemperature* leaf = nullptr;
  for (const auto& [name, pool] : heat.pools) {
    if (name == "inner") inner = &pool;
    if (name == "leaf") leaf = &pool;
  }
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);
  EXPECT_GT(inner->segments, 0u);
  EXPECT_EQ(inner->cold, inner->segments);
  EXPECT_EQ(inner->hot + inner->warm, 0u);
  EXPECT_GE(leaf->hot, 1u);
}

}  // namespace
}  // namespace hbtree
