// Microbenchmark (real wall clock, google-benchmark): Algorithm 2 —
// software-pipelined batch lookup on the implicit tree, sweeping the
// pipeline depth. The real-hardware analogue of Figure 20's trend on this
// host: deeper pipelines hide more miss latency until the core's MLP
// saturates.

#include <benchmark/benchmark.h>

#include <vector>

#include "cpubtree/implicit_btree.h"
#include "cpubtree/pipelined_search.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

void BM_PipelinedImplicitSearch(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const std::size_t n = 1 << 20;
  static PageRegistry registry;
  static ImplicitBTree<Key64>* tree = [] {
    static ImplicitBTree<Key64>::Config config;
    static ImplicitBTree<Key64> t(config, &registry);
    t.Build(workload::GenerateDataset<Key64>(1 << 20, 42));
    return &t;
  }();
  auto queries = workload::MakeDistributedQueries<Key64>(
      1 << 14, workload::Distribution::kUniform, 43);
  std::vector<LookupResult<Key64>> results(queries.size());
  for (auto _ : state) {
    PipelinedSearch(*tree, queries.data(), queries.size(), depth,
                    results.data());
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
  (void)n;
}
BENCHMARK(BM_PipelinedImplicitSearch)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_PipelinedRegularSearch(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  static PageRegistry registry;
  static RegularBTree<Key64>* tree = [] {
    static RegularBTree<Key64>::Config config;
    static RegularBTree<Key64> t(config, &registry);
    t.Build(workload::GenerateDataset<Key64>(1 << 20, 44));
    return &t;
  }();
  auto queries = workload::MakeDistributedQueries<Key64>(
      1 << 14, workload::Distribution::kUniform, 45);
  std::vector<LookupResult<Key64>> results(queries.size());
  for (auto _ : state) {
    PipelinedSearch(*tree, queries.data(), queries.size(), depth,
                    results.data());
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_PipelinedRegularSearch)->Arg(1)->Arg(16);

}  // namespace
}  // namespace hbtree

BENCHMARK_MAIN();
