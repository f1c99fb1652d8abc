// Figure 14 (Section 6.3): update batch size — synchronized vs
// asynchronous crossover.
//
// Time to apply batches of 8K..512K updates to a regular HB+-tree,
// including I-segment maintenance. Expected: the synchronized method
// (one small transfer per modified node) wins for small batches; the
// asynchronous method (one bulk I-segment transfer) wins once the batch
// is large enough to amortize it — the paper's 64M-key tree crosses over
// between 64K and 128K. The crossover scales with the tree (I-segment)
// size, so the default is the paper's configuration, --n_log2=26: at
// 2^24 keys the upload is small enough for async to win every batch
// (EXPERIMENTS.md deviation 10).
//
// The asynchronous column is the paper's bulk upload: its tree runs with
// delta_sync_cost_margin = 0, which turns off the delta-first mirror
// sync (hybrid/hb_regular.h) for any batch that dirties a hot fragment.
// async_delta_us is the same method under the library's default
// delta-first sync.
//
// Flags: --n_log2, --platform, --seed, and --metrics_json=<path>
// (hbtree.bench.v1 rows, one per batch size; `scripts/check.sh paper`
// gates them).

#include <cstdio>

#include "bench_support/hb_runner.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 26);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s, n=%zu\n", platform.name.c_str(), n);
  auto data = workload::GenerateDataset<Key64>(n, seed);
  auto probes = workload::MakeLookupQueries(data, seed + 1);
  probes.resize(std::min<std::size_t>(probes.size(), 1 << 16));

  BenchReport report("fig14_batch_size");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("seed", static_cast<double>(seed));
  const double default_margin =
      HBRegularTree<Key64>::Config{}.delta_sync_cost_margin;
  for (std::size_t batch_size = 8 * 1024; batch_size <= 512 * 1024;
       batch_size *= 2) {
    auto batch = workload::MakeUpdateBatch<Key64>(
        data, batch_size, /*insert_fraction=*/0.5, seed + 2);
    // Figure 14 includes I-segment maintenance for both methods.
    auto total_us = [&](UpdateMethod method, double delta_margin) {
      return RunUpdateBatch(platform, data, probes, batch, method,
                            delta_margin)
          .total_us;
    };
    report.AddRow()
        .Num("batch", static_cast<double>(batch_size), 0)
        .Num("sync_us", total_us(UpdateMethod::kSynchronized, 0.0), 0)
        .Num("async_us", total_us(UpdateMethod::kAsyncParallel, 0.0), 0)
        .Num("async_delta_us",
             total_us(UpdateMethod::kAsyncParallel, default_margin), 0);
  }
  report.PrintTable("batch size: sync vs async update (paper Fig. 14)");
  std::printf(
      "\nPaper expectation (64M tree): sync wins up to ~64K, async from "
      "~128K; the crossover shifts with tree size.\n");
  MaybeWriteReport(args, report);
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) {
  hbtree::bench::Args args(argc, argv);
  args.PrintActive();
  hbtree::bench::Run(args);
  return 0;
}
