// OLAP warehouse scenario — the workload the paper's introduction
// motivates: a lookup-intensive index over a fact table, refreshed by
// periodic bulk loads (near-real-time ETL).
//
// The example runs several "business days": each day executes millions of
// dimension-key lookups through the heterogeneous pipeline, then an
// end-of-day batch of new facts is merged. It contrasts the two HB+-tree
// variants: the implicit tree (rebuild on refresh, fastest lookups) and
// the regular tree (incremental batch updates).

#include <cstdio>
#include <vector>

#include "io/tree_io.h"
#include "gpusim/device.h"
#include "hybrid/batch_update.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"
#include "sim/platform.h"
#include "workload/paper.h"

using namespace hbtree;

namespace {

constexpr int kDays = 3;
constexpr std::size_t kInitialFacts = 2'000'000;
constexpr std::size_t kQueriesPerDay = 500'000;
constexpr std::size_t kNewFactsPerDay = 100'000;

/// Applies a day's batch to the sorted fact set (for the implicit tree's
/// rebuild path).
std::vector<KeyValue<Key64>> MergeBatch(
    const std::vector<KeyValue<Key64>>& facts,
    const std::vector<UpdateQuery<Key64>>& batch) {
  std::vector<KeyValue<Key64>> merged = facts;
  for (const auto& update : batch) {
    auto it = std::lower_bound(
        merged.begin(), merged.end(), update.pair.key,
        [](const KeyValue<Key64>& kv, Key64 k) { return kv.key < k; });
    if (update.kind == UpdateQuery<Key64>::Kind::kInsert) {
      if (it == merged.end() || it->key != update.pair.key) {
        merged.insert(it, update.pair);
      }
    } else if (it != merged.end() && it->key == update.pair.key) {
      merged.erase(it);
    }
  }
  return merged;
}

}  // namespace

int main() {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  PageRegistry registry;

  auto facts = workload::GenerateDataset<Key64>(kInitialFacts, /*seed=*/2026);

  // Regular HB+-tree: incremental refresh.
  HBRegularTree<Key64>::Config regular_config;
  regular_config.tree.leaf_fill = 0.8;
  HBRegularTree<Key64> regular(regular_config, &registry, &device,
                               &transfer);
  if (!regular.Build(facts)) return 1;

  // Implicit HB+-tree: rebuild on refresh.
  PageRegistry implicit_registry;
  HBImplicitTree<Key64>::Config implicit_config;
  HBImplicitTree<Key64> implicit(implicit_config, &implicit_registry,
                                 &device, &transfer);
  if (!implicit.Build(facts)) return 1;

  PipelineConfig pipeline;
  pipeline.cpu_queries_per_us = 220;

  for (int day = 1; day <= kDays; ++day) {
    std::printf("=== day %d: %zu facts ===\n", day, facts.size());

    // Daytime: analysts hammer the index with point lookups.
    auto queries = workload::MakeLookupQueries(facts, /*seed=*/100 + day);
    queries.resize(std::min(kQueriesPerDay, queries.size()));
    std::vector<LookupResult<Key64>> results;

    PipelineStats implicit_stats = RunSearchPipeline(
        implicit, queries.data(), queries.size(), pipeline, &results);
    std::size_t misses = 0;
    for (const auto& r : results) misses += !r.found;
    PipelineStats regular_stats = RunSearchPipeline(
        regular, queries.data(), queries.size(), pipeline);
    std::printf("  lookups: implicit %.0f MQPS, regular %.0f MQPS "
                "(simulated), %zu misses\n",
                implicit_stats.mqps, regular_stats.mqps, misses);

    // Nighttime ETL: merge the day's new facts.
    auto batch = workload::MakeUpdateBatch<Key64>(
        facts, kNewFactsPerDay, /*insert_fraction=*/0.9, /*seed=*/200 + day);
    BatchUpdateConfig update_config;
    BatchUpdateStats update_stats = RunBatchUpdate(
        regular, batch, UpdateMethod::kAsyncParallel, update_config);

    facts = MergeBatch(facts, batch);
    implicit.Build(facts);  // rebuild + re-upload
    std::printf("  refresh: regular batch %.1f ms (update %.1f + sync "
                "%.1f), implicit rebuilt (%zu facts)\n",
                update_stats.total_us / 1e3, update_stats.update_us / 1e3,
                update_stats.sync_us / 1e3, facts.size());

    // Sanity: both trees agree with the merged fact set.
    for (std::size_t i = 0; i < facts.size(); i += facts.size() / 7) {
      auto a = implicit.host_tree().Search(facts[i].key);
      auto b = regular.host_tree().Search(facts[i].key);
      if (!a.found || !b.found || a.value != facts[i].value ||
          b.value != facts[i].value) {
        std::fprintf(stderr, "inconsistency at key index %zu!\n", i);
        return 1;
      }
    }
  }
  // End-of-week snapshot: persist the built index so the next restart
  // skips the rebuild, then prove the snapshot loads intact.
  const std::string snapshot = "/tmp/hbtree_warehouse.hbt";
  Status saved = SaveTreeFile(implicit.host_tree(), snapshot);
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n", saved.message().c_str());
    return 1;
  }
  PageRegistry reload_registry;
  ImplicitBTree<Key64>::Config reload_config;
  reload_config.hybrid_layout = true;
  ImplicitBTree<Key64> reloaded(reload_config, &reload_registry);
  Status loaded = LoadTreeFile(&reloaded, snapshot);
  if (!loaded.ok() || reloaded.size() != facts.size() ||
      !reloaded.Search(facts[42].key).found) {
    std::fprintf(stderr, "snapshot reload failed\n");
    return 1;
  }
  std::remove(snapshot.c_str());
  std::printf("snapshot: %zu facts persisted and reloaded intact\n",
              reloaded.size());

  std::printf("done: %d days processed, trees consistent.\n", kDays);
  return 0;
}
