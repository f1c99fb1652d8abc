// Differential coverage for the YCSB-style workload harness: every
// standard mix A–F (plus the hotspot and scan-heavy matrix variants) is
// replayed through the sharded serving front-end while a std::map
// oracle tracks expected state, and the skewed scenarios are checked to
// actually produce the per-shard imbalance they promise.
//
// Oracle exactness under concurrency rests on the OpStream contract
// (op_stream.h): mutating ops stay on the client's own residue class of
// the record index space and fresh insert keys are minted per-client
// disjoint, so each client can serialize its own mutations (future-
// fenced delete+insert — the tree treats a duplicate insert as a no-op,
// regular_btree.h, so a value change must delete first) and keep a
// per-client exact map. Reads and scans roam the whole key space:
//  - mixes with no blind updates and no RMW (C, D) check every read
//    exactly in flight — bootstrap values never change and the only new
//    keys a client's chooser can pick are its own committed inserts;
//  - mixes with updates/RMW check status and ordering invariants in
//    flight (a concurrent delete+insert toggle makes mid-run values
//    unknowable) and rely on the final quiesced sweep for exactness;
//  - RMW does a blocking read whose value is checked against the
//    client's own map — a lost update surfaces as a version mismatch.
// After the clients join, the merged oracle is swept with point lookups
// for every live key and with range scans that straddle the shard
// bounds Init() derives (data[n*i/4].key starts shard i).
//
// Runs cleanly under ASan and TSan: all cross-thread state is either
// futures, per-thread maps merged after join, or the server's own
// internals.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/server.h"
#include "workload/dataset.h"
#include "workload/op_stream.h"
#include "workload/spec.h"

namespace hbtree::workload {
namespace {

constexpr int kClients = 3;
constexpr std::size_t kOpsPerClient = 320;
constexpr std::size_t kBootstrap = 4096;
constexpr std::uint64_t kSeed = 2016;
constexpr std::size_t kReadWindow = 128;

// Same shape as serve_shard_stress_test: small buckets and batches so
// many buckets dispatch per shard, fixed CPU rates so modelled costs
// are deterministic.
serve::ServerOptions ShardedOptions(int shards = 4, int read_workers = 2) {
  serve::ServerOptions options;
  options.num_shards = shards;
  options.num_read_workers = read_workers;
  options.bucket_size = 512;
  options.cpu_queries_per_us = 20.0;
  options.min_sub_bucket = 64;
  options.update_batch_size = 256;
  return options;
}

UpdateQuery<Key64> Insert(Key64 key, Key64 value) {
  return UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kInsert,
                            KeyValue<Key64>{key, value}};
}

UpdateQuery<Key64> Delete(Key64 key) {
  return UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kDelete,
                            KeyValue<Key64>{key, 0}};
}

std::uint64_t HistogramCount(const obs::MetricsSnapshot& snapshot,
                             const std::string& name) {
  for (const auto& [metric, summary] : snapshot.histograms) {
    if (metric == name) return summary.count;
  }
  return 0;
}

// One client's replay: serialized own-key mutations against a local
// exact map, windowed async reads/scans with the strongest check the
// mix allows. `*own_out` ends up as the client's final own-key map
// (merged into the shared oracle after join). Void so ASSERT_* works.
void ReplayClient(serve::Server<Key64>& server, const WorkloadSpec& spec,
                  const BootstrapDataset& dataset,
                  const std::map<Key64, Key64>& bootstrap, int client,
                  std::map<Key64, Key64>* own_out) {
  OpStream stream(spec, &dataset, client, kClients, kSeed);
  std::map<Key64, Key64>& own = *own_out;
  // Reads are exactly checkable in flight iff no client blind-writes or
  // RMWs existing keys (see file comment).
  const bool exact_reads = spec.update_bp == 0 && spec.rmw_bp == 0;

  struct PendingRead {
    std::future<serve::ReadResult<Key64>> future;
    Key64 key = 0;
    int scan_len = 0;  // 0 = point lookup
    bool check_exact = false;
    Key64 expected = 0;
  };
  std::deque<PendingRead> window;

  auto expected_value = [&](Key64 key) {
    auto it = own.find(key);
    if (it != own.end()) return it->second;
    auto bit = bootstrap.find(key);
    EXPECT_NE(bit, bootstrap.end()) << "op key " << key << " untracked";
    return bit == bootstrap.end() ? Key64{0} : bit->second;
  };

  auto harvest = [&](PendingRead pending) {
    serve::ReadResult<Key64> result = pending.future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.message();
    if (pending.scan_len > 0) {
      ASSERT_LE(result.range.size(),
                static_cast<std::size_t>(pending.scan_len));
      Key64 previous = 0;
      for (const auto& kv : result.range) {
        EXPECT_GE(kv.key, pending.key);
        EXPECT_GT(kv.key, previous) << "scan results not strictly sorted";
        previous = kv.key;
      }
      return;
    }
    if (pending.check_exact) {
      EXPECT_TRUE(result.lookup.found) << "key " << pending.key;
      EXPECT_EQ(result.lookup.value, pending.expected)
          << "key " << pending.key;
    }
  };

  auto drain_to = [&](std::size_t depth) {
    while (window.size() > depth) {
      harvest(std::move(window.front()));
      window.pop_front();
      if (::testing::Test::HasFatalFailure()) return;
    }
  };

  for (std::size_t i = 0; i < kOpsPerClient; ++i) {
    const Op op = stream.Next();
    switch (op.kind) {
      case OpKind::kRead: {
        PendingRead pending;
        pending.key = op.key;
        if (exact_reads) {
          pending.check_exact = true;
          pending.expected = expected_value(op.key);
        }
        pending.future = server.SubmitLookup(op.key);
        window.push_back(std::move(pending));
        break;
      }
      case OpKind::kScan: {
        PendingRead pending;
        pending.key = op.key;
        pending.scan_len = op.scan_len;
        pending.future = server.SubmitRange(op.key, op.scan_len);
        window.push_back(std::move(pending));
        break;
      }
      case OpKind::kUpdate: {
        // Value change = fenced delete+insert (duplicate insert is a
        // no-op); both commits awaited so `own` stays exact.
        const serve::UpdateResult dropped =
            server.SubmitUpdate(Delete(op.key)).get();
        ASSERT_TRUE(dropped.status.ok()) << dropped.status.message();
        const serve::UpdateResult added =
            server.SubmitUpdate(Insert(op.key, op.value)).get();
        ASSERT_TRUE(added.status.ok()) << added.status.message();
        own[op.key] = op.value;
        break;
      }
      case OpKind::kInsert: {
        const serve::UpdateResult added =
            server.SubmitUpdate(Insert(op.key, op.value)).get();
        ASSERT_TRUE(added.status.ok()) << added.status.message();
        own[op.key] = op.value;
        break;
      }
      case OpKind::kReadModifyWrite: {
        // Dependent read: the blocking lookup must observe this
        // client's latest committed value — a mismatch is a lost
        // update. The write bumps a version so every RMW is visible in
        // the final sweep.
        const serve::ReadResult<Key64> read =
            server.SubmitLookup(op.key).get();
        ASSERT_TRUE(read.status.ok()) << read.status.message();
        ASSERT_TRUE(read.lookup.found) << "rmw key " << op.key;
        const Key64 before = expected_value(op.key);
        ASSERT_EQ(read.lookup.value, before)
            << "rmw read of own key " << op.key << " lost an update";
        const Key64 after = before + 1;
        const serve::UpdateResult dropped =
            server.SubmitUpdate(Delete(op.key)).get();
        ASSERT_TRUE(dropped.status.ok()) << dropped.status.message();
        const serve::UpdateResult added =
            server.SubmitUpdate(Insert(op.key, after)).get();
        ASSERT_TRUE(added.status.ok()) << added.status.message();
        own[op.key] = after;
        break;
      }
    }
    drain_to(kReadWindow);
    if (::testing::Test::HasFatalFailure()) return;
  }
  drain_to(0);
}

// Full differential run of one matrix scenario (forced onto the
// sequential bootstrap dataset so shard bounds and append headroom are
// predictable): concurrent clients with in-flight checks, then a
// quiesced exact sweep of every live key and boundary-straddling scans.
void RunDifferential(const std::string& scenario_name) {
  Scenario scenario;
  ASSERT_TRUE(FindScenario(scenario_name, &scenario)) << scenario_name;

  const BootstrapDataset dataset =
      MakeSequentialDataset(kBootstrap, /*value_seed=*/kSeed);
  std::map<Key64, Key64> bootstrap;
  for (const auto& kv : dataset.pairs) bootstrap.emplace(kv.key, kv.value);

  Status status;
  auto server =
      serve::Server<Key64>::Create(ShardedOptions(), dataset.pairs, &status);
  ASSERT_NE(server, nullptr) << status.message();

  std::vector<std::map<Key64, Key64>> overlays(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ReplayClient(*server, scenario.spec, dataset, bootstrap, c,
                     &overlays[c]);
      });
    }
    for (auto& thread : clients) thread.join();
  }
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // Merge: bootstrap overlaid with every client's own-key map. The
  // OpStream contract keeps overlay key sets disjoint across clients
  // (workload_test pins that property down); verify it held here too.
  std::map<Key64, Key64> reference = bootstrap;
  std::size_t overlay_keys = 0;
  std::map<Key64, Key64> merged_overlay;
  for (const auto& overlay : overlays) {
    overlay_keys += overlay.size();
    for (const auto& [key, value] : overlay) {
      reference[key] = value;
      merged_overlay[key] = value;
    }
  }
  EXPECT_EQ(merged_overlay.size(), overlay_keys)
      << "clients mutated overlapping keys — oracle not exact";

  // Quiesced exact sweep: every live key must hold the oracle's value.
  {
    std::deque<std::pair<std::future<serve::ReadResult<Key64>>,
                         std::pair<Key64, Key64>>>
        sweep;
    auto harvest_one = [&] {
      auto [future, kv] = std::move(sweep.front());
      sweep.pop_front();
      const serve::ReadResult<Key64> result = future.get();
      ASSERT_TRUE(result.status.ok()) << result.status.message();
      ASSERT_TRUE(result.lookup.found) << "key " << kv.first;
      ASSERT_EQ(result.lookup.value, kv.second) << "key " << kv.first;
    };
    for (const auto& [key, value] : reference) {
      sweep.emplace_back(server->SubmitLookup(key),
                         std::pair<Key64, Key64>{key, value});
      if (sweep.size() > 256) {
        harvest_one();
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
      }
    }
    while (!sweep.empty()) {
      harvest_one();
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
  }

  // Boundary-crossing scans: starts just below each shard bound (the
  // key at index n*i/4 starts shard i) so the range pipeline has to
  // continue into the next shard, plus the domain edges.
  const std::size_t n = dataset.pairs.size();
  std::vector<Key64> starts = {
      dataset.pairs.front().key,
      dataset.pairs[n / 4].key - 3,
      dataset.pairs[n / 2].key - 3,
      dataset.pairs[3 * n / 4].key - 3,
      dataset.pairs[n - 1].key,  // tail: runs into appended keys, if any
  };
  constexpr int kSweepScanLen = 48;
  for (const Key64 start : starts) {
    const serve::ReadResult<Key64> result =
        server->SubmitRange(start, kSweepScanLen).get();
    ASSERT_TRUE(result.status.ok()) << result.status.message();
    std::vector<KeyValue<Key64>> expected;
    for (auto it = reference.lower_bound(start);
         it != reference.end() &&
         expected.size() < static_cast<std::size_t>(kSweepScanLen);
         ++it) {
      expected.push_back(KeyValue<Key64>{it->first, it->second});
    }
    ASSERT_EQ(result.range.size(), expected.size()) << "scan @" << start;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.range[i].key, expected[i].key) << "scan @" << start;
      EXPECT_EQ(result.range[i].value, expected[i].value)
          << "scan @" << start;
    }
  }

  // No deadline is configured, so nothing may have shed.
  const serve::ServeStats stats = server->Stats();
  EXPECT_EQ(stats.shed_reads, 0u);
  EXPECT_EQ(stats.shed_updates, 0u);
  server->Shutdown();
  EXPECT_TRUE(server->ValidateTrees());
}

TEST(ServeWorkload, DifferentialYcsbA) { RunDifferential("ycsb_a"); }
TEST(ServeWorkload, DifferentialYcsbB) { RunDifferential("ycsb_b"); }
TEST(ServeWorkload, DifferentialYcsbC) { RunDifferential("ycsb_c"); }
TEST(ServeWorkload, DifferentialYcsbD) { RunDifferential("ycsb_d"); }
TEST(ServeWorkload, DifferentialYcsbE) { RunDifferential("ycsb_e"); }
TEST(ServeWorkload, DifferentialYcsbF) { RunDifferential("ycsb_f"); }
TEST(ServeWorkload, DifferentialHotspot) { RunDifferential("hotspot"); }
TEST(ServeWorkload, DifferentialScanHeavy) {
  RunDifferential("scan_heavy");
}

// The unscrambled-zipf scenario exists to hammer one key-range shard:
// rank r maps straight to the r-th smallest key, and with theta=0.99
// the first quarter of the rank space absorbs ~ln(n/4)/ln(n) ≈ 86% of
// the ops. The per-shard serve.shard<N>.* series must show that
// imbalance: shard 0's admission-queue traffic and dispatched buckets
// dominate every other shard.
TEST(ServeWorkload, ZipfianSkewConcentratesTrafficOnShardZero) {
  Scenario scenario;
  ASSERT_TRUE(FindScenario("zipfian", &scenario));
  const BootstrapDataset dataset =
      MakeSequentialDataset(16 * 1024, /*value_seed=*/kSeed);

  Status status;
  auto server = serve::Server<Key64>::Create(ShardedOptions(), dataset.pairs,
                                             &status);
  ASSERT_NE(server, nullptr) << status.message();

  constexpr int kSkewClients = 2;
  constexpr std::size_t kSkewOps = 4000;
  std::vector<std::thread> clients;
  for (int c = 0; c < kSkewClients; ++c) {
    clients.emplace_back([&, c] {
      OpStream stream(scenario.spec, &dataset, c, kSkewClients, kSeed);
      std::deque<std::future<serve::ReadResult<Key64>>> reads;
      std::deque<std::future<serve::UpdateResult>> updates;
      for (std::size_t i = 0; i < kSkewOps; ++i) {
        const Op op = stream.Next();
        if (op.kind == OpKind::kUpdate || op.kind == OpKind::kInsert ||
            op.kind == OpKind::kReadModifyWrite) {
          updates.push_back(server->SubmitUpdate(Insert(op.key, op.value)));
        } else if (op.kind == OpKind::kScan) {
          reads.push_back(server->SubmitRange(op.key, op.scan_len));
        } else {
          reads.push_back(server->SubmitLookup(op.key));
        }
        while (reads.size() > kReadWindow) {
          EXPECT_TRUE(reads.front().get().status.ok());
          reads.pop_front();
        }
        while (updates.size() > 32) {
          EXPECT_TRUE(updates.front().get().status.ok());
          updates.pop_front();
        }
      }
      for (auto& f : reads) EXPECT_TRUE(f.get().status.ok());
      for (auto& f : updates) EXPECT_TRUE(f.get().status.ok());
    });
  }
  for (auto& thread : clients) thread.join();

  const obs::MetricsSnapshot snapshot = server->metrics().Collect();
  const std::uint64_t hot_waits = HistogramCount(
      snapshot, obs::MetricsRegistry::ShardedName("serve", 0, "queue_wait"));
  const std::uint64_t hot_buckets = snapshot.counter_or(
      obs::MetricsRegistry::ShardedName("serve", 0, "read_buckets"));
  EXPECT_GT(hot_waits, 0u);
  EXPECT_GT(hot_buckets, 0u);
  for (int shard = 1; shard < 4; ++shard) {
    const std::uint64_t cold_waits = HistogramCount(
        snapshot,
        obs::MetricsRegistry::ShardedName("serve", shard, "queue_wait"));
    const std::uint64_t cold_buckets = snapshot.counter_or(
        obs::MetricsRegistry::ShardedName("serve", shard, "read_buckets"));
    // ~86% vs ~4.7% of ops: assert a conservative 3x so scheduling
    // noise can't flake the test.
    EXPECT_GE(hot_waits, 3 * std::max<std::uint64_t>(cold_waits, 1))
        << "shard " << shard << " saw as much queue traffic as the hot one";
    // Bucket COUNTS are anti-correlated with load (a busy shard ships
    // full buckets, an idle one ships near-empty fill-window buckets),
    // so the imbalance signal is bucket FILL: ops per dispatched bucket
    // must be at least 2x higher on the hot shard.
    if (cold_waits > 0 && cold_buckets > 0) {
      EXPECT_GE(hot_waits * cold_buckets, 2 * cold_waits * hot_buckets)
          << "shard " << shard << " buckets ran as full as the hot shard's";
    }
  }
  server->Shutdown();
  EXPECT_TRUE(server->ValidateTrees());
}

// Load shedding under skew must surface on the overloaded shard's
// counters, not smear across the topology. The deadline rides on the
// zipf-hot traffic (the keys routing to shard 0, ~86% of the burst); the
// cold shards' trickle runs deadline-free, which keeps the localization
// deterministic whatever the host's speed — on a starved machine
// (sanitizers, parallel ctest) even an idle shard's fill-window wait can
// exceed any fixed deadline, so a uniform deadline would shed on cold
// shards too and say nothing about attribution. The hot deadline is 1us,
// which no op can meet at dispatch (a queue push, a worker wake-up and a
// batch pop take longer), so the hot shard sheds on any host and the test
// checks attribution and reconciliation, not how fast the host submits.
TEST(ServeWorkload, SheddingConcentratesOnTheHotShard) {
  // Read-only unscrambled zipf: shed_updates must stay zero everywhere.
  WorkloadSpec spec;
  spec.name = "zipf_read_burst";
  spec.chooser.kind = KeyChooserKind::kZipfian;
  const BootstrapDataset dataset =
      MakeSequentialDataset(16 * 1024, /*value_seed=*/kSeed);

  Status status;
  auto server = serve::Server<Key64>::Create(ShardedOptions(), dataset.pairs,
                                             &status);
  ASSERT_NE(server, nullptr) << status.message();

  // Submit the whole burst before harvesting anything so the hot
  // shard's backlog builds. Shard 0 starts at the lowest key and ends
  // just below the key at index n/4 (Init's bounds on a sequential
  // dataset).
  constexpr std::size_t kBurst = 20000;
  constexpr std::chrono::microseconds kDeadline{1};
  const Key64 hot_bound = dataset.pairs[dataset.pairs.size() / 4].key;
  OpStream stream(spec, &dataset, /*client=*/0, /*clients=*/1, kSeed);
  std::vector<std::future<serve::ReadResult<Key64>>> pending;
  pending.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    const Key64 key = stream.Next().key;
    pending.push_back(server->SubmitLookup(
        key, key < hot_bound ? kDeadline : std::chrono::microseconds{0}));
  }
  std::uint64_t served = 0, shed = 0;
  for (auto& f : pending) {
    const serve::ReadResult<Key64> result = f.get();
    if (result.status.ok()) {
      ++served;
    } else {
      ASSERT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
          << result.status.message();
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u) << "hot ops dispatched inside a 1us deadline?";
  EXPECT_EQ(served + shed, kBurst);

  const obs::MetricsSnapshot snapshot = server->metrics().Collect();
  const std::uint64_t hot_shed = snapshot.counter_or(
      obs::MetricsRegistry::ShardedName("serve", 0, "shed_reads"));
  EXPECT_GT(hot_shed, 0u) << "overloaded hot shard never shed";
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(snapshot.counter_or(obs::MetricsRegistry::ShardedName(
                  "serve", shard, "shed_updates")),
              0u)
        << "shard " << shard;
    if (shard == 0) continue;
    EXPECT_EQ(snapshot.counter_or(obs::MetricsRegistry::ShardedName(
                  "serve", shard, "shed_reads")),
              0u)
        << "deadline-free shard " << shard << " shed — misattributed";
  }
  // Every shed the clients observed is on the hot shard's counter, and
  // the per-shard counters reconcile with the aggregate stats.
  EXPECT_EQ(hot_shed, shed);
  const serve::ServeStats stats = server->Stats();
  EXPECT_EQ(stats.shed_reads, shed);
  server->Shutdown();
  EXPECT_TRUE(server->ValidateTrees());
}

}  // namespace
}  // namespace hbtree::workload
