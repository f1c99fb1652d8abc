#include "hybrid/batch_update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "hybrid/bucket_pipeline.h"
#include "sim/platform.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

struct Fixture {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

/// Parameterized over (method, insert fraction): every combination must
/// leave the host tree exactly matching a reference map and the device
/// mirror consistent.
class BatchUpdateTest
    : public ::testing::TestWithParam<std::tuple<UpdateMethod, double>> {};

TEST_P(BatchUpdateTest, TreeMatchesReferenceModelAfterBatch) {
  const auto [method, insert_fraction] = GetParam();
  Fixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.75;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(40000, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));

  std::map<Key64, Key64> model;
  for (const auto& kv : data) model[kv.key] = kv.value;

  auto batch = workload::MakeUpdateBatch<Key64>(
      data, 6000, insert_fraction, /*seed=*/2);
  for (const auto& update : batch) {
    if (update.kind == UpdateQuery<Key64>::Kind::kInsert) {
      model.emplace(update.pair.key, update.pair.value);
    } else {
      model.erase(update.pair.key);
    }
  }

  BatchUpdateConfig uconfig;
  uconfig.real_threads = 3;
  BatchUpdateStats stats = RunBatchUpdate(tree, batch, method, uconfig);
  tree.host_tree().Validate();
  EXPECT_TRUE(tree.MirrorMatchesHost());
  EXPECT_EQ(tree.host_tree().size(), model.size());
  EXPECT_EQ(stats.applied, batch.size());  // batch entries never collide

  // Spot-check the host tree against the reference.
  std::size_t i = 0;
  for (const auto& [key, value] : model) {
    if (++i % 17 != 0) continue;
    auto result = tree.host_tree().Search(key);
    ASSERT_TRUE(result.found) << key;
    ASSERT_EQ(result.value, value);
  }

  // Device mirror agrees: pipeline search over the batch keys.
  std::vector<Key64> probes;
  for (const auto& update : batch) probes.push_back(update.pair.key);
  probes.resize(probes.size() / 4 * 4);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10;
  std::vector<LookupResult<Key64>> results;
  RunSearchPipeline(tree, probes.data(), probes.size(), pconfig, &results);
  for (std::size_t j = 0; j < probes.size(); ++j) {
    ASSERT_EQ(results[j].found, model.count(probes[j]) > 0) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndMixes, BatchUpdateTest,
    ::testing::Combine(::testing::Values(UpdateMethod::kAsyncSingleThread,
                                         UpdateMethod::kAsyncParallel,
                                         UpdateMethod::kSynchronized),
                       ::testing::Values(0.0, 0.5, 1.0)),
    [](const auto& info) {
      return std::string(UpdateMethodName(std::get<0>(info.param))) ==
                     "async-1t"
                 ? "Async1T_" +
                       std::to_string(
                           static_cast<int>(std::get<1>(info.param) * 100))
             : std::string(UpdateMethodName(std::get<0>(info.param))) ==
                       "async-parallel"
                 ? "AsyncPar_" +
                       std::to_string(
                           static_cast<int>(std::get<1>(info.param) * 100))
                 : "Sync_" + std::to_string(static_cast<int>(
                                 std::get<1>(info.param) * 100));
    });

TEST(BatchUpdate, StructuralShareIsTinyWithBigLeaves) {
  // Section 5.6: "more than 99% of the update queries can be resolved"
  // without splits or merges thanks to the 256-entry big leaves.
  Fixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.7;
  HBRegularTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(200000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));
  auto batch = workload::MakeUpdateBatch<Key64>(
      data, 16384, /*insert_fraction=*/0.5, /*seed=*/4);
  BatchUpdateConfig uconfig;
  BatchUpdateStats stats =
      RunBatchUpdate(tree, batch, UpdateMethod::kAsyncParallel, uconfig);
  EXPECT_LT(static_cast<double>(stats.structural) / stats.queries, 0.01);
}

TEST(BatchUpdate, ParallelWithManyThreadsMatchesSingleThread) {
  // Concurrency stress: the striped-lock parallel phase must produce the
  // same final tree as the single-threaded path.
  auto data = workload::GenerateDataset<Key64>(60000, /*seed=*/5);
  auto batch = workload::MakeUpdateBatch<Key64>(
      data, 20000, /*insert_fraction=*/0.6, /*seed=*/6);
  std::vector<std::size_t> sizes;
  for (int threads : {1, 2, 4, 8}) {
    Fixture fx;
    HBRegularTree<Key64>::Config config;
    config.tree.leaf_fill = 0.7;
    HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                              &fx.transfer);
    ASSERT_TRUE(tree.Build(data));
    BatchUpdateConfig uconfig;
    uconfig.real_threads = threads;
    RunBatchUpdate(tree, batch, UpdateMethod::kAsyncParallel, uconfig);
    tree.host_tree().Validate();
    EXPECT_TRUE(tree.MirrorMatchesHost());
    sizes.push_back(tree.host_tree().size());
    for (std::size_t i = 0; i < batch.size(); i += 37) {
      const auto& update = batch[i];
      bool found = tree.host_tree().Search(update.pair.key).found;
      ASSERT_EQ(found, update.kind == UpdateQuery<Key64>::Kind::kInsert);
    }
  }
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[0]);
  }
}

void ExpectSameStats(const BatchUpdateStats& a, const BatchUpdateStats& b) {
  // Fails to compile when a field is added, so it cannot go unlisted.
  static_assert(sizeof(BatchUpdateStats) == 12 * sizeof(std::uint64_t));
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.structural, b.structural);
  EXPECT_EQ(a.modified_nodes, b.modified_nodes);
  EXPECT_EQ(a.leaf_runs, b.leaf_runs);
  EXPECT_EQ(a.sync_retries, b.sync_retries);
  EXPECT_EQ(a.delta_syncs, b.delta_syncs);
  EXPECT_EQ(a.full_syncs, b.full_syncs);
  EXPECT_EQ(a.delta_nodes, b.delta_nodes);
  EXPECT_EQ(a.update_us, b.update_us);
  EXPECT_EQ(a.sync_us, b.sync_us);
  EXPECT_EQ(a.total_us, b.total_us);
}

TEST(BatchUpdate, ModelledBatchDoesNotDependOnWorkerCount) {
  // The cost model charges the paper's 16 threads however many workers
  // the host runs, so the stats must match field for field across worker
  // counts. Both batches are dense (40-60 updates per leaf), so a cut by
  // update count alone falls inside a leaf run at every worker boundary.
  // The insert-only batch into half-full leaves defers no update as
  // structural; the mixed one defers a few (deletes in the partly filled
  // last leaf), which the single-threaded pass then applies.
  struct Case {
    double leaf_fill;
    double insert_fraction;
  };
  auto data = workload::GenerateDataset<Key64>(60000, /*seed=*/5);
  for (const Case c : {Case{0.5, 1.0}, Case{0.7, 0.6}}) {
    SCOPED_TRACE(c.insert_fraction);
    auto batch = workload::MakeUpdateBatch<Key64>(
        data, 20000, c.insert_fraction, /*seed=*/6);
    std::vector<BatchUpdateStats> stats;
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(threads);
      Fixture fx;
      HBRegularTree<Key64>::Config config;
      config.tree.leaf_fill = c.leaf_fill;
      HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                                &fx.transfer);
      ASSERT_TRUE(tree.Build(data));
      if (threads == 1) {
        // Every count-based cut of the sorted batch into 2 or 4 slices
        // falls between two updates on one leaf.
        std::vector<Key64> keys;
        for (const auto& update : batch) keys.push_back(update.pair.key);
        std::sort(keys.begin(), keys.end());
        for (const std::size_t slices : {2, 4}) {
          const std::size_t span = (keys.size() + slices - 1) / slices;
          for (std::size_t x = span; x < keys.size(); x += span) {
            EXPECT_EQ(tree.host_tree().FindLastInner(keys[x - 1]),
                      tree.host_tree().FindLastInner(keys[x]))
                << x;
          }
        }
      }
      BatchUpdateConfig uconfig;
      uconfig.real_threads = threads;
      stats.push_back(
          RunBatchUpdate(tree, batch, UpdateMethod::kAsyncParallel, uconfig));
      tree.host_tree().Validate();
      EXPECT_TRUE(tree.MirrorMatchesHost());
    }
    EXPECT_EQ(stats[0].structural == 0, c.insert_fraction == 1.0)
        << stats[0].structural;
    EXPECT_GT(stats[0].modified_nodes, 0u);
    EXPECT_LT(stats[0].leaf_runs, batch.size() / 10);
    for (std::size_t i = 1; i < stats.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameStats(stats[i], stats[0]);
    }
  }
}

// Arrival-order replay: an insert applies only to an absent key, a delete
// only to a present one. Returns how many ops applied.
std::uint64_t Replay(const std::vector<UpdateQuery<Key64>>& batch,
                     std::map<Key64, Key64>* model) {
  std::uint64_t applied = 0;
  for (const auto& update : batch) {
    applied += update.kind == UpdateQuery<Key64>::Kind::kInsert
                   ? model->emplace(update.pair.key, update.pair.value).second
                   : model->erase(update.pair.key);
  }
  return applied;
}

std::map<Key64, Key64> Contents(const RegularBTree<Key64>& tree) {
  std::vector<KeyValue<Key64>> pairs(tree.size() + 1);
  const int n =
      tree.RangeScan(0, static_cast<int>(pairs.size()), pairs.data());
  std::map<Key64, Key64> contents;
  for (int i = 0; i < n; ++i) contents[pairs[i].key] = pairs[i].value;
  return contents;
}

TEST(BatchUpdate, DuplicateHeavyBatchesMatchArrivalOrderReplay) {
  // Every op draws its key from a pool of 64, half of them present before
  // the first batch, and carries its own value, so each key sees long
  // mixed runs that fold to their net effect. At fill 1.0 inserts of
  // absent keys split, so the deferred pass runs as well. After each
  // batch the contents must equal an arrival-order replay and `applied`
  // its count, and the stats must not depend on the worker count.
  auto data = workload::GenerateDataset<Key64>(20000, /*seed=*/31);
  std::vector<Key64> pool;
  for (std::size_t i = 300; pool.size() < 64; i += 600) {
    ASSERT_LT(data[i].key + 1, data[i + 1].key);
    pool.push_back(data[i].key);
    pool.push_back(data[i].key + 1);
  }
  Rng rng(32);
  std::vector<std::vector<UpdateQuery<Key64>>> batches;
  Key64 value = 1;
  for (const std::size_t size : {4 * 1024, 40 * 1024}) {
    std::vector<UpdateQuery<Key64>> batch(size);
    for (auto& update : batch) {
      update.kind = rng.NextBounded(2) == 0 ? UpdateQuery<Key64>::Kind::kInsert
                                            : UpdateQuery<Key64>::Kind::kDelete;
      update.pair = {pool[rng.NextBounded(pool.size())], value++};
    }
    batches.push_back(std::move(batch));
  }
  // In the 40K batch's sorted order the first group_size boundary falls
  // inside one key's ops; the fold, which runs before the groups, must
  // see across it.
  {
    std::vector<Key64> keys;
    for (const auto& update : batches[1]) keys.push_back(update.pair.key);
    std::sort(keys.begin(), keys.end());
    const std::size_t group = BatchUpdateConfig::group_size;
    ASSERT_EQ(keys[group - 1], keys[group]);
  }
  std::map<Key64, Key64> model;
  for (const auto& kv : data) model[kv.key] = kv.value;
  std::vector<std::map<Key64, Key64>> expected;
  std::vector<std::uint64_t> expected_applied;
  for (const auto& batch : batches) {
    expected_applied.push_back(Replay(batch, &model));
    expected.push_back(model);
  }

  for (const UpdateMethod method :
       {UpdateMethod::kAsyncSingleThread, UpdateMethod::kAsyncParallel}) {
    for (const double leaf_fill : {1.0, 0.7}) {
      SCOPED_TRACE(UpdateMethodName(method));
      SCOPED_TRACE(leaf_fill);
      std::vector<std::vector<BatchUpdateStats>> stats;
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(threads);
        Fixture fx;
        HBRegularTree<Key64>::Config config;
        config.tree.leaf_fill = leaf_fill;
        HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                                  &fx.transfer);
        ASSERT_TRUE(tree.Build(data));
        BatchUpdateConfig uconfig;
        uconfig.real_threads = threads;
        stats.emplace_back();
        for (std::size_t b = 0; b < batches.size(); ++b) {
          SCOPED_TRACE(batches[b].size());
          stats.back().push_back(
              RunBatchUpdate(tree, batches[b], method, uconfig));
          tree.host_tree().Validate();
          EXPECT_TRUE(tree.MirrorMatchesHost());
          EXPECT_EQ(stats.back()[b].applied, expected_applied[b]);
          EXPECT_EQ(Contents(tree.host_tree()), expected[b]);
        }
      }
      EXPECT_EQ(stats[0][0].structural > 0, leaf_fill == 1.0);
      for (std::size_t i = 1; i < stats.size(); ++i) {
        for (std::size_t b = 0; b < batches.size(); ++b) {
          SCOPED_TRACE(i);
          SCOPED_TRACE(b);
          ExpectSameStats(stats[i][b], stats[0][b]);
        }
      }
    }
  }
}

TEST(BatchUpdate, RepeatedDeletesOfOneKeyChargeOneTreeOp) {
  // 16,384 deletes of one present key fold into one delete. Every op pays
  // the sort; only that delete descends, takes a lock and pays the
  // update, and its leaf (fill 0.7, above a quarter) does not merge.
  auto data = workload::GenerateDataset<Key64>(40000, /*seed=*/33);
  const Key64 key = data[20000].key;
  const std::vector<UpdateQuery<Key64>> batch(
      16384, UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kDelete, {key, 0}});
  for (const UpdateMethod method :
       {UpdateMethod::kAsyncSingleThread, UpdateMethod::kAsyncParallel}) {
    SCOPED_TRACE(UpdateMethodName(method));
    Fixture fx;
    HBRegularTree<Key64>::Config config;
    config.tree.leaf_fill = 0.7;
    HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                              &fx.transfer);
    ASSERT_TRUE(tree.Build(data));
    const BatchUpdateConfig uconfig;
    const BatchUpdateStats stats = RunBatchUpdate(tree, batch, method, uconfig);
    EXPECT_FALSE(tree.host_tree().Search(key).found);
    EXPECT_EQ(stats.applied, 1u);
    EXPECT_EQ(stats.structural, 0u);
    const double sort_us = batch.size() * uconfig.sort_us_per_query;
    if (method == UpdateMethod::kAsyncParallel) {
      EXPECT_EQ(stats.leaf_runs, 1u);
      EXPECT_DOUBLE_EQ(stats.update_us,
                       sort_us + (uconfig.cpu_update_us +
                                  uconfig.lock_overhead_us) /
                                     (uconfig.model_threads *
                                      uconfig.parallel_efficiency));
    } else {
      EXPECT_DOUBLE_EQ(stats.update_us, sort_us + uconfig.cpu_update_us);
    }
  }
}

TEST(BatchUpdate, ParallelKeepsSameKeyOrderAcrossADeferredSplit) {
  // Default leaf_fill 1.0 fills every big leaf, so inserting an absent key
  // needs a split: the parallel phase defers it to the single-threaded
  // pass. Insert-then-delete folds to a lone delete and must leave the key
  // absent; delete-then-insert (the delete a no-op) must leave it present
  // through the deferred insert.
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    Fixture fx;
    HBRegularTree<Key64>::Config config;
    HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                              &fx.transfer);
    auto data = workload::GenerateDataset<Key64>(40000, /*seed=*/21);
    ASSERT_TRUE(tree.Build(data));
    // Absent keys strictly between two dataset keys, in distinct leaves.
    std::vector<Key64> absent;
    for (std::size_t i = 1000; i + 1 < data.size() && absent.size() < 8;
         i += 4000) {
      if (data[i].key + 1 < data[i + 1].key) absent.push_back(data[i].key + 1);
    }
    ASSERT_EQ(absent.size(), 8u);
    std::vector<UpdateQuery<Key64>> batch;
    for (std::size_t j = 0; j < absent.size(); ++j) {
      const KeyValue<Key64> pair{absent[j], absent[j] + 5};
      const UpdateQuery<Key64> insert{UpdateQuery<Key64>::Kind::kInsert,
                                      pair};
      const UpdateQuery<Key64> erase{UpdateQuery<Key64>::Kind::kDelete,
                                     pair};
      if (j % 2 == 0) {
        batch.push_back(insert);
        batch.push_back(erase);
      } else {
        batch.push_back(erase);
        batch.push_back(insert);
      }
    }
    BatchUpdateConfig uconfig;
    uconfig.real_threads = threads;
    RunBatchUpdate(tree, batch, UpdateMethod::kAsyncParallel, uconfig);
    tree.host_tree().Validate();
    EXPECT_TRUE(tree.MirrorMatchesHost());
    for (std::size_t j = 0; j < absent.size(); ++j) {
      EXPECT_EQ(tree.host_tree().Search(absent[j]).found, j % 2 == 1)
          << "key " << absent[j];
    }
    EXPECT_EQ(tree.host_tree().size(), data.size() + absent.size() / 2);
  }
}

TEST(BatchUpdate, ParallelKeepsSameKeyOrderAcrossADeferredMerge) {
  // At leaf_fill 0.25 every big leaf sits at a quarter of its capacity,
  // so a delete there may merge and the parallel phase defers it. Each
  // key's ops below fold to [delete, insert]: the insert must stay behind
  // the deferred delete, or it would run first and the delete would
  // remove it (absent key) or it would find the key still present and do
  // nothing (present key). Either way the key must end present with the
  // insert's value.
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    Fixture fx;
    HBRegularTree<Key64>::Config config;
    config.tree.leaf_fill = 0.25;
    HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                              &fx.transfer);
    auto data = workload::GenerateDataset<Key64>(40000, /*seed=*/22);
    ASSERT_TRUE(tree.Build(data));
    // Alternately present and absent keys, in distinct leaves.
    std::vector<Key64> keys;
    for (std::size_t i = 1000; keys.size() < 8; i += 4000) {
      ASSERT_LT(data[i].key + 1, data[i + 1].key);
      keys.push_back(keys.size() % 2 == 0 ? data[i].key : data[i].key + 1);
    }
    using Kind = UpdateQuery<Key64>::Kind;
    const Kind kinds[] = {Kind::kInsert, Kind::kDelete, Kind::kInsert,
                          Kind::kInsert};
    std::vector<UpdateQuery<Key64>> batch;
    for (int r = 0; r < 4; ++r) {
      for (const Key64 key : keys) {
        batch.push_back({kinds[r], {key, key + 10 * r}});
      }
    }
    BatchUpdateConfig uconfig;
    uconfig.real_threads = threads;
    const BatchUpdateStats stats =
        RunBatchUpdate(tree, batch, UpdateMethod::kAsyncParallel, uconfig);
    tree.host_tree().Validate();
    EXPECT_TRUE(tree.MirrorMatchesHost());
    for (const Key64 key : keys) {
      const auto result = tree.host_tree().Search(key);
      ASSERT_TRUE(result.found) << "key " << key;
      EXPECT_EQ(result.value, key + 20) << "key " << key;
    }
    EXPECT_EQ(tree.host_tree().size(), data.size() + keys.size() / 2);
    EXPECT_EQ(stats.structural, 2 * keys.size());  // delete + held insert
    // Replay: a present key's delete and second insert apply; an absent
    // key's first insert applies too.
    EXPECT_EQ(stats.applied, 2 * keys.size() + keys.size() / 2);
    EXPECT_EQ(stats.leaf_runs, keys.size());
    // Every op pays the sort. A deferred delete pays its parallel attempt
    // and its serial rerun in the parallel term, then the serial tail; a
    // held insert never runs in the parallel phase and pays only its
    // serial run, in the tail. With default costs: 3.328 us.
    const double op_us = uconfig.cpu_update_us;
    const double parallel_us =
        (2 * keys.size() * op_us +
         keys.size() * BatchUpdateConfig::lock_overhead_us) /
        (uconfig.model_threads * BatchUpdateConfig::parallel_efficiency);
    EXPECT_DOUBLE_EQ(stats.update_us,
                     batch.size() * BatchUpdateConfig::sort_us_per_query +
                         parallel_us + 2 * keys.size() * op_us);
  }
}

TEST(BatchUpdate, MirrorMatchesHostAfterEverySmallBatch) {
  // Small batches dirty few hot fragments, so the async methods stream
  // them on the delta sync path; the synchronized method copies each
  // modified node. Either way the device mirror must equal the host.
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/13);
  auto updates = workload::MakeUpdateBatch<Key64>(
      data, 20 * 64, /*insert_fraction=*/0.5, /*seed=*/14);
  for (UpdateMethod method :
       {UpdateMethod::kAsyncSingleThread, UpdateMethod::kAsyncParallel,
        UpdateMethod::kSynchronized}) {
    SCOPED_TRACE(UpdateMethodName(method));
    Fixture fx;
    HBRegularTree<Key64>::Config config;
    config.tree.leaf_fill = 0.9;
    HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                              &fx.transfer);
    ASSERT_TRUE(tree.Build(data));
    BatchUpdateConfig uconfig;
    uconfig.real_threads = 2;
    for (std::size_t b = 0; b < updates.size(); b += 64) {
      const std::vector<UpdateQuery<Key64>> batch(
          updates.begin() + b, updates.begin() + b + 64);
      RunBatchUpdate(tree, batch, method, uconfig);
      ASSERT_TRUE(tree.MirrorMatchesHost()) << "batch " << b / 64;
    }
    if (method != UpdateMethod::kSynchronized) {
      EXPECT_GT(tree.delta_nodes_synced(), 0u);
    }
  }
}

TEST(BatchUpdate, TimingModelOrdering) {
  // Async-parallel must be modelled faster than async-single-thread. With
  // the delta-first mirror sync turned off (margin 0, the paper's method
  // that Figs 13 and 14 measure), every async batch that dirties a hot
  // fragment ends with one bulk I-segment upload.
  Fixture fx;
  HBRegularTree<Key64>::Config config;
  config.tree.leaf_fill = 0.7;
  config.delta_sync_cost_margin = 0;
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/7);
  auto batch = workload::MakeUpdateBatch<Key64>(
      data, 32768, /*insert_fraction=*/0.5, /*seed=*/8);
  double single_us = 0, parallel_us = 0;
  for (UpdateMethod method :
       {UpdateMethod::kAsyncSingleThread, UpdateMethod::kAsyncParallel}) {
    Fixture local;
    HBRegularTree<Key64> tree(config, &local.registry, &local.device,
                              &local.transfer);
    ASSERT_TRUE(tree.Build(data));
    BatchUpdateConfig uconfig;
    BatchUpdateStats stats = RunBatchUpdate(tree, batch, method, uconfig);
    EXPECT_TRUE(tree.MirrorMatchesHost());
    if (method == UpdateMethod::kAsyncSingleThread) {
      single_us = stats.update_us;
    } else {
      parallel_us = stats.update_us;
    }
    ASSERT_GT(stats.modified_nodes, 0u);
    EXPECT_EQ(stats.full_syncs, 1u);
    EXPECT_EQ(stats.delta_syncs, 0u);
    EXPECT_EQ(stats.sync_us,
              local.transfer.HostToDeviceUs(tree.i_segment_bytes()));
  }
  EXPECT_GT(single_us, 2.0 * parallel_us);
}

TEST(MixedWorkload, SyncDecaysFasterWithUpdateShare) {
  auto data = workload::GenerateDataset<Key64>(150000, /*seed=*/9);
  double ratio_low = 0, ratio_high = 0;
  for (double update_ratio : {0.1, 0.8}) {
    double mops[2];
    int i = 0;
    for (UpdateMethod method :
         {UpdateMethod::kSynchronized, UpdateMethod::kAsyncParallel}) {
      Fixture fx;
      HBRegularTree<Key64>::Config config;
      config.tree.leaf_fill = 0.95;  // near-full lines: frequent inner edits
      HBRegularTree<Key64> tree(config, &fx.registry, &fx.device,
                                &fx.transfer);
      ASSERT_TRUE(tree.Build(data));
      auto searches = workload::MakeLookupQueries(data, /*seed=*/10);
      searches.resize(1 << 15);
      auto updates = workload::MakeUpdateBatch<Key64>(
          data, static_cast<std::size_t>((1 << 15) * update_ratio) + 1, 0.5,
          /*seed=*/11);
      BatchUpdateConfig uconfig;
      MixedWorkloadStats stats = RunMixedWorkload(
          tree, searches, updates, update_ratio, method, uconfig, 0.1);
      EXPECT_TRUE(tree.MirrorMatchesHost());
      mops[i++] = stats.mops();
    }
    if (update_ratio < 0.5) {
      ratio_low = mops[0] / mops[1];
    } else {
      ratio_high = mops[0] / mops[1];
    }
  }
  EXPECT_LT(ratio_high, ratio_low);  // sync hurts more at high update share
}

}  // namespace
}  // namespace hbtree
