// Microbenchmark (real wall clock, google-benchmark): bulk-build
// throughput of every index structure in the repository, plus the
// serialized-snapshot load path — the operations a warehouse pays at
// refresh time (Section 5.6) measured natively on the build host.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "fast/fast_tree.h"
#include "io/tree_io.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

const std::vector<KeyValue<Key64>>& SharedData() {
  static const auto* data = new std::vector<KeyValue<Key64>>(
      workload::GenerateDataset<Key64>(1 << 20, 42));
  return *data;
}

void BM_BuildImplicit(benchmark::State& state) {
  const auto& data = SharedData();
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  for (auto _ : state) {
    tree.Build(data);
    benchmark::DoNotOptimize(tree.height());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_BuildImplicit)->Unit(benchmark::kMillisecond);

void BM_BuildRegular(benchmark::State& state) {
  const auto& data = SharedData();
  PageRegistry registry;
  RegularBTree<Key64>::Config config;
  RegularBTree<Key64> tree(config, &registry);
  for (auto _ : state) {
    tree.Build(data);
    benchmark::DoNotOptimize(tree.height());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_BuildRegular)->Unit(benchmark::kMillisecond);

void BM_BuildFast(benchmark::State& state) {
  const auto& data = SharedData();
  PageRegistry registry;
  FastTree<Key64>::Config config;
  FastTree<Key64> tree(config, &registry);
  for (auto _ : state) {
    tree.Build(data);
    benchmark::DoNotOptimize(tree.depth());
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_BuildFast)->Unit(benchmark::kMillisecond);

void BM_SnapshotSaveLoad(benchmark::State& state) {
  const auto& data = SharedData();
  PageRegistry registry;
  ImplicitBTree<Key64>::Config config;
  ImplicitBTree<Key64> tree(config, &registry);
  tree.Build(data);
  const std::string path = "/tmp/hbtree_micro_snapshot.hbt";
  for (auto _ : state) {
    Status saved = SaveTreeFile(tree, path);
    PageRegistry reload_registry;
    ImplicitBTree<Key64> reloaded(config, &reload_registry);
    Status loaded = LoadTreeFile(&reloaded, path);
    benchmark::DoNotOptimize(loaded.ok() && saved.ok());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_SnapshotSaveLoad)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hbtree

BENCHMARK_MAIN();
