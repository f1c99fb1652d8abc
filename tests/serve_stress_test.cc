// Concurrency stress tests for the serving layer (src/serve/). Several
// client threads hammer a Server with point lookups and range queries
// while an update stream commits batches through the epoch-swapped
// snapshot pair; the assertions check that every observed read is
// consistent with *some* linearization of the committed batches. The
// test is written to run cleanly under ThreadSanitizer (see the tsan
// CMake preset): all cross-thread bookkeeping goes through atomics and
// futures, never plain shared variables.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <iterator>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/macros.h"
#include "gpusim/device.h"
#include "hybrid/batch_update.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_regular.h"
#include "serve/server.h"
#include "sim/platform.h"

namespace hbtree {
namespace {

// Stable region: keys 1..kStable, never touched by updates, with a
// deterministic value tag. Dynamic region: far above, so stable-region
// range scans can never pick up in-flight keys.
constexpr std::uint64_t kStable = 16 * 1024;
constexpr std::uint64_t kDynBase = 1ull << 40;

Key64 StableValue(std::uint64_t key) { return key * 3 + 1; }
Key64 DynamicValue(std::uint64_t key) { return key + 7; }

std::vector<KeyValue<Key64>> StableDataset() {
  std::vector<KeyValue<Key64>> data;
  data.reserve(kStable);
  for (std::uint64_t k = 1; k <= kStable; ++k) {
    data.push_back(KeyValue<Key64>{k, StableValue(k)});
  }
  return data;
}

serve::ServerOptions StressOptions() {
  serve::ServerOptions options;
  // Small buckets/batches so many epochs swap during the test; the CPU
  // rate fields only drive the simulated cost model, so fixed values
  // keep the test fast and deterministic across hosts.
  options.bucket_size = 1024;
  options.cpu_queries_per_us = 20.0;
  options.update_batch_size = 1024;
  return options;
}

UpdateQuery<Key64> Insert(std::uint64_t key) {
  return UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kInsert,
                            KeyValue<Key64>{key, DynamicValue(key)}};
}

UpdateQuery<Key64> Delete(std::uint64_t key) {
  return UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kDelete,
                            KeyValue<Key64>{key, 0}};
}

// An updater inserts consecutive key blocks; lookup threads race it and
// check each observation against the block's known lifecycle state:
//   * block fully committed before the lookup was submitted -> must hit,
//   * block not yet submitted when the result arrived      -> must miss,
//   * otherwise the insert is in flight and either outcome is legal,
//     but a hit must carry the inserted value.
TEST(ServeStress, InsertOnlyLinearization) {
  constexpr std::uint64_t kBlock = 1024;
  constexpr int kBlocks = 8;
  constexpr int kClients = 4;
  constexpr int kItersPerClient = 2000;

  auto data = StableDataset();
  auto server_ptr = serve::Server<Key64>::Create(StressOptions(), data);
  ASSERT_NE(server_ptr, nullptr);
  serve::Server<Key64>& server = *server_ptr;

  std::atomic<int> blocks_submitted{0};
  std::atomic<int> blocks_committed{0};

  std::thread updater([&] {
    for (int b = 0; b < kBlocks; ++b) {
      // Raised *before* the first push: a partial batch may commit (and
      // become visible to readers) at any point after that, so the
      // "never submitted" classification below stays sound.
      blocks_submitted.store(b + 1, std::memory_order_release);
      std::vector<std::future<serve::UpdateResult>> pending;
      pending.reserve(kBlock);
      for (std::uint64_t j = 0; j < kBlock; ++j) {
        pending.push_back(
            server.SubmitUpdate(Insert(kDynBase + b * kBlock + j)));
      }
      for (auto& f : pending) ASSERT_TRUE(f.get().status.ok());
      blocks_committed.store(b + 1, std::memory_order_release);
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(1000 + c);
      for (int i = 0; i < kItersPerClient; ++i) {
        if (rng() % 2 == 0) {
          // Stable keys are invariant under the update stream.
          const std::uint64_t key = 1 + rng() % kStable;
          auto result = server.SubmitLookup(key).get().lookup;
          ASSERT_TRUE(result.found) << "stable key " << key;
          ASSERT_EQ(result.value, StableValue(key));
        } else {
          const int block = static_cast<int>(rng() % kBlocks);
          const std::uint64_t key =
              kDynBase + static_cast<std::uint64_t>(block) * kBlock +
              rng() % kBlock;
          const int committed_before =
              blocks_committed.load(std::memory_order_acquire);
          auto result = server.SubmitLookup(key).get().lookup;
          const int submitted_after =
              blocks_submitted.load(std::memory_order_acquire);
          if (block < committed_before) {
            ASSERT_TRUE(result.found)
                << "key " << key << " of block " << block
                << " was committed before the lookup was submitted";
            ASSERT_EQ(result.value, DynamicValue(key));
          } else if (block >= submitted_after) {
            ASSERT_FALSE(result.found)
                << "key " << key << " of block " << block
                << " was observed before any of its inserts were submitted";
          } else if (result.found) {
            // In flight: visibility is racy, the value is not.
            ASSERT_EQ(result.value, DynamicValue(key));
          }
        }
      }
    });
  }

  updater.join();
  for (auto& t : clients) t.join();

  // Drain and join the workers so the op counters are final: the worker
  // loops fulfil promises *before* bumping the counters, so stats read
  // right after the last .get() could lag by a few operations.
  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  serve::ServeStats stats = server.Stats();
  EXPECT_EQ(stats.lookups,
            static_cast<std::uint64_t>(kClients) * kItersPerClient);
  EXPECT_EQ(stats.updates, static_cast<std::uint64_t>(kBlocks) * kBlock);
  EXPECT_GE(stats.update_batches, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(stats.epoch, stats.update_batches);
  EXPECT_GT(stats.read_buckets, 0u);
  EXPECT_EQ(stats.read_latency.count, stats.lookups + stats.ranges);
  EXPECT_LE(stats.read_latency.p50_us, stats.read_latency.p99_us);
  EXPECT_LE(stats.read_latency.p99_us, stats.read_latency.max_us);
  EXPECT_LE(stats.update_latency.p50_us, stats.update_latency.p99_us);
}

// Inserts and deletes churn the dynamic region while readers verify the
// stable region stays exact — point lookups, never-present probes, and
// range scans compared against the reference dataset — and that any
// dynamic hit carries the inserted value.
TEST(ServeStress, MixedChurnKeepsStableRegionExact) {
  constexpr std::uint64_t kChurn = 4 * 1024;
  constexpr int kRounds = 4;
  constexpr int kClients = 3;
  constexpr int kItersPerClient = 1500;
  constexpr int kRangeLen = 8;

  auto data = StableDataset();
  auto server_ptr = serve::Server<Key64>::Create(StressOptions(), data);
  ASSERT_NE(server_ptr, nullptr);
  serve::Server<Key64>& server = *server_ptr;

  std::atomic<bool> churn_done{false};
  std::thread updater([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::future<serve::UpdateResult>> pending;
      for (std::uint64_t j = 0; j < kChurn; ++j) {
        pending.push_back(server.SubmitUpdate(Insert(kDynBase + j)));
      }
      for (auto& f : pending) ASSERT_TRUE(f.get().status.ok());
      pending.clear();
      for (std::uint64_t j = 0; j < kChurn; ++j) {
        pending.push_back(server.SubmitUpdate(Delete(kDynBase + j)));
      }
      for (auto& f : pending) ASSERT_TRUE(f.get().status.ok());
    }
    churn_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(2000 + c);
      for (int i = 0; i < kItersPerClient; ++i) {
        switch (rng() % 4) {
          case 0: {
            const std::uint64_t key = 1 + rng() % kStable;
            auto result = server.SubmitLookup(key).get().lookup;
            ASSERT_TRUE(result.found);
            ASSERT_EQ(result.value, StableValue(key));
            break;
          }
          case 1: {
            // The gap between the stable and dynamic regions is never
            // populated by anyone.
            const std::uint64_t key = kStable + 1 + rng() % kStable;
            ASSERT_FALSE(server.SubmitLookup(key).get().lookup.found);
            break;
          }
          case 2: {
            // A stable-region range scan must match the reference
            // exactly: the dynamic keys sit far above, so churn cannot
            // leak into the first kRangeLen matches.
            const std::uint64_t first =
                1 + rng() % (kStable - kRangeLen);
            auto range = server.SubmitRange(first, kRangeLen).get().range;
            ASSERT_EQ(range.size(), static_cast<std::size_t>(kRangeLen));
            for (int j = 0; j < kRangeLen; ++j) {
              ASSERT_EQ(range[j].key, first + j);
              ASSERT_EQ(range[j].value, StableValue(first + j));
            }
            break;
          }
          default: {
            const std::uint64_t key = kDynBase + rng() % kChurn;
            auto result = server.SubmitLookup(key).get().lookup;
            if (result.found) {
              ASSERT_EQ(result.value, DynamicValue(key));
            }
            break;
          }
        }
      }
    });
  }

  updater.join();
  for (auto& t : clients) t.join();
  EXPECT_TRUE(churn_done.load(std::memory_order_acquire));

  // After the last round's deletes committed, the dynamic region is
  // empty again on both snapshot instances.
  for (std::uint64_t j = 0; j < kChurn; j += 257) {
    EXPECT_FALSE(server.Lookup(kDynBase + j).found);
  }

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  serve::ServeStats stats = server.Stats();
  EXPECT_EQ(stats.lookups + stats.ranges,
            static_cast<std::uint64_t>(kClients) * kItersPerClient +
                (kChurn + 256) / 257);
  EXPECT_EQ(stats.updates,
            static_cast<std::uint64_t>(kRounds) * 2 * kChurn);
  EXPECT_EQ(stats.epoch, stats.update_batches);
}

// A submission racing Shutdown() must be rejected through its future
// with a typed status, not crash the process (regression test for the
// CHECK-on-closed-queue behavior the serving layer used to have).
TEST(ServeStress, SubmitAfterShutdownRejectsViaFuture) {
  auto data = StableDataset();
  auto server_ptr = serve::Server<Key64>::Create(StressOptions(), data);
  ASSERT_NE(server_ptr, nullptr);
  serve::Server<Key64>& server = *server_ptr;
  ASSERT_TRUE(server.Lookup(1).found);

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  auto read = server.SubmitLookup(1).get();
  EXPECT_EQ(read.status.code(), StatusCode::kUnavailable);
  auto update = server.SubmitUpdate(Insert(kDynBase)).get();
  EXPECT_EQ(update.status.code(), StatusCode::kUnavailable);
}

// A malformed range request resolves through its future instead of
// crashing the serving process.
TEST(ServeStress, InvalidRangeRejectsViaFuture) {
  auto data = StableDataset();
  auto server_ptr = serve::Server<Key64>::Create(StressOptions(), data);
  ASSERT_NE(server_ptr, nullptr);
  auto result = server_ptr->SubmitRange(1, 0).get();
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(result.range.empty());
}

// Invalid options surface through the factory, not an abort, and not as
// a server whose every GPU dispatch fails over to the CPU path.
TEST(ServeStress, CreateRejectsInvalidOptions) {
  auto data = StableDataset();
  serve::ServerOptions options = StressOptions();
  options.bucket_size = 0;
  Status status;
  auto server = serve::Server<Key64>::Create(options, data, &status);
  EXPECT_EQ(server, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// A tree built as a server slot builds its own, on its own simulated
// device: the offline twin the cost tests below compare against.
struct OfflineTwin {
  OfflineTwin(const serve::ServerOptions& options,
              const std::vector<KeyValue<Key64>>& data)
      : device(options.platform.gpu),
        transfer(&device, options.platform.pcie),
        tree(TreeConfig(), &registry, &device, &transfer) {
    HBTREE_CHECK(tree.Build(data));
  }
  static HBRegularTree<Key64>::Config TreeConfig() {
    HBRegularTree<Key64>::Config config;
    config.tree.leaf_fill = serve::ServerOptions::leaf_fill;
    return config;
  }
  PageRegistry registry;
  gpu::Device device;
  gpu::TransferEngine transfer;
  HBRegularTree<Key64> tree;
};

// Serving runs the offline pipeline: one lookup on a fresh server charges,
// to the bit, what TryRunSearchPipeline charges that key on the twin
// under a default PipelineConfig with the server's leaf rate and a
// one-key bucket. Transfers do not touch the device L2, and both devices
// allocate the same ids in the same order, so nothing else differs.
TEST(ServeStress, LookupChargesTheOfflinePipeline) {
  const auto data = StableDataset();
  const serve::ServerOptions options = StressOptions();
  auto server = serve::Server<Key64>::Create(options, data);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->SubmitLookup(17).get().status.ok());
  server->Shutdown();
  EXPECT_TRUE(server->ValidateTrees());

  OfflineTwin twin(options, data);
  PipelineConfig config;
  config.cpu_queries_per_us = options.cpu_queries_per_us;
  config.bucket_size = 1;
  const Key64 key = 17;
  std::vector<LookupResult<Key64>> results;
  PipelineStats offline;
  ASSERT_TRUE(
      TryRunSearchPipeline(twin.tree, &key, 1, config, &results, &offline)
          .ok());
  EXPECT_EQ(server->Stats().sim_pipeline_us, offline.total_us);
}

// A commit models the platform's hardware threads: a one-update commit on
// an M2 server charges what TryRunBatchUpdate charges that update on the
// twin with M2's 8 threads.
TEST(ServeStress, CommitModelsThePlatformThreads) {
  const auto data = StableDataset();
  serve::ServerOptions options = StressOptions();
  options.platform = sim::PlatformSpec::M2();
  ASSERT_EQ(options.platform.cpu.threads, 8);
  auto server = serve::Server<Key64>::Create(options, data);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->SubmitUpdate(Insert(kDynBase + 1)).get().status.ok());
  // The commit's modelled charge lands after its future resolves.
  server->Shutdown();
  EXPECT_TRUE(server->ValidateTrees());

  OfflineTwin twin(options, data);
  BatchUpdateConfig config;
  config.model_threads = 8;
  config.cpu_update_us = options.cpu_update_us;
  BatchUpdateStats offline;
  ASSERT_TRUE(TryRunBatchUpdate(twin.tree, {Insert(kDynBase + 1)},
                                serve::kUpdateMethod, config, &offline)
                  .ok());
  EXPECT_EQ(server->Stats().sim_update_us, offline.total_us);
}

// One client streams inserts and deletes of 16 hot keys, each op with its
// own value, without waiting between submits, so every commit batch holds
// long same-key runs that fold to their net effect. The committed state
// must equal an arrival-order replay of the ops whose futures succeeded
// (an insert applies only to an absent key), and `applied` its count.
TEST(ServeStress, HotKeyChurnMatchesArrivalOrderReplay) {
  constexpr int kOps = 4096;
  auto data = StableDataset();
  auto server_ptr = serve::Server<Key64>::Create(StressOptions(), data);
  ASSERT_NE(server_ptr, nullptr);
  serve::Server<Key64>& server = *server_ptr;

  // Eight stable keys (present at start) and eight dynamic ones (absent).
  std::vector<std::uint64_t> hot;
  for (std::uint64_t i = 0; i < 8; ++i) {
    hot.push_back(1 + i * (kStable / 8));
    hot.push_back(kDynBase + i);
  }
  std::mt19937_64 rng(4242);
  std::vector<UpdateQuery<Key64>> ops;
  std::vector<std::future<serve::UpdateResult>> pending;
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t key = hot[rng() % hot.size()];
    const auto kind = rng() % 2 == 0 ? UpdateQuery<Key64>::Kind::kInsert
                                     : UpdateQuery<Key64>::Kind::kDelete;
    ops.push_back({kind, KeyValue<Key64>{key, (1ull << 32) + i}});
    pending.push_back(server.SubmitUpdate(ops.back()));
  }
  std::map<Key64, Key64> model;
  for (const auto& kv : data) model[kv.key] = kv.value;
  std::uint64_t applied = 0;
  for (int i = 0; i < kOps; ++i) {
    if (!pending[i].get().status.ok()) continue;
    applied += ops[i].kind == UpdateQuery<Key64>::Kind::kInsert
                   ? model.emplace(ops[i].pair.key, ops[i].pair.value).second
                   : model.erase(ops[i].pair.key);
  }
  // Every future resolved, so every commit is visible to new lookups.
  for (const std::uint64_t key : hot) {
    const auto it = model.find(key);
    const LookupResult<Key64> result = server.Lookup(key);
    ASSERT_EQ(result.found, it != model.end()) << "key " << key;
    if (result.found) {
      EXPECT_EQ(result.value, it->second) << "key " << key;
    }
  }
  // No other dynamic key appeared.
  const auto dynamic = server.Range(kDynBase, 16);
  EXPECT_EQ(dynamic.size(),
            static_cast<std::size_t>(std::distance(
                model.lower_bound(kDynBase), model.end())));

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  EXPECT_EQ(server.Stats().applied, applied);
}

// Read-your-writes: once an update's future resolved, a subsequently
// submitted lookup must observe it — the epoch swap publishes the batch
// to new read buckets before the update futures fire. Several writer
// threads each own a disjoint key lane and verify their own writes while
// the others churn.
TEST(ServeStress, ReadYourWrites) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 300;

  auto data = StableDataset();
  auto server_ptr = serve::Server<Key64>::Create(StressOptions(), data);
  ASSERT_NE(server_ptr, nullptr);
  serve::Server<Key64>& server = *server_ptr;

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::uint64_t lane = kDynBase + (1ull << 20) * w;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::uint64_t key = lane + i;
        auto committed = server.SubmitUpdate(Insert(key)).get();
        ASSERT_TRUE(committed.status.ok());
        auto after_insert = server.SubmitLookup(key).get().lookup;
        ASSERT_TRUE(after_insert.found)
            << "own insert of " << key << " not visible after commit";
        ASSERT_EQ(after_insert.value, DynamicValue(key));
        if (i % 2 == 0) {
          auto deleted = server.SubmitUpdate(Delete(key)).get();
          ASSERT_TRUE(deleted.status.ok());
          ASSERT_FALSE(server.SubmitLookup(key).get().lookup.found)
              << "own delete of " << key << " not visible after commit";
        }
      }
    });
  }
  for (auto& t : writers) t.join();

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  serve::ServeStats stats = server.Stats();
  EXPECT_EQ(stats.shed_reads, 0u);
  EXPECT_EQ(stats.shed_updates, 0u);
  EXPECT_EQ(stats.faults_injected, 0u);
}

}  // namespace
}  // namespace hbtree
