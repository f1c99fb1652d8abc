// Figure 13 (Section 6.3): regular HB+-tree update methods.
//
// (a) update throughput of the single-threaded asynchronous, parallel
//     asynchronous, and synchronized methods across tree sizes — the
//     I-segment transfer is excluded for the asynchronous methods, as in
//     the paper; parallel async is expected ~3X over single-threaded,
//     while the synchronized method is bounded by per-node transfer
//     initialization latency.
// (b) I-segment synchronization time per tree size.
//
// The asynchronous methods end with the paper's one bulk I-segment
// upload: every tree runs with delta_sync_cost_margin = 0, which turns
// off the delta-first mirror sync (hybrid/hb_regular.h) for any batch
// that dirties a hot fragment. The async-1t row's delta_sync_us column
// reruns that method with the library's default delta-first sync.
//
// Flags: --min_log2, --max_log2, --batch, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per size and method;
// `scripts/check.sh paper` gates them).

#include <cmath>
#include <cstdio>

#include "bench_support/hb_runner.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  auto sizes = SizeSweepFromArgs(args, 20, 24, 2);
  const std::size_t batch_size = args.GetInt("batch", 128 * 1024);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s, batch=%zu updates\n", platform.name.c_str(),
              batch_size);
  BenchReport report("fig13_update_methods");
  report.Meta("platform", platform.name);
  report.MetaNum("updates", static_cast<double>(batch_size));
  report.MetaNum("seed", static_cast<double>(seed));
  const double default_margin =
      HBRegularTree<Key64>::Config{}.delta_sync_cost_margin;
  for (std::size_t n : sizes) {
    auto data = GenerateDataset<Key64>(n, seed);
    auto probes = MakeLookupQueries(data, seed + 1);
    probes.resize(std::min<std::size_t>(probes.size(), 1 << 16));
    auto batch = MakeUpdateBatch<Key64>(data, batch_size,
                                        /*insert_fraction=*/0.5, seed + 2);

    double base_rate = 0;
    for (UpdateMethod method :
         {UpdateMethod::kAsyncSingleThread, UpdateMethod::kAsyncParallel,
          UpdateMethod::kSynchronized}) {
      std::size_t i_segment_bytes = 0;
      const BatchUpdateStats stats = RunUpdateBatch(
          platform, data, probes, batch, method, 0.0, &i_segment_bytes);
      // Figure 13a excludes the bulk I-segment transfer for async methods.
      const double time_us = method == UpdateMethod::kSynchronized
                                 ? stats.total_us
                                 : stats.update_us;
      const double mups = batch.size() / time_us;
      if (base_rate == 0) base_rate = mups;
      BenchReport::Row& row = report.AddRow();
      row.Num("tuples_log2", std::log2(static_cast<double>(n)), 0)
          .Text("method", UpdateMethodName(method))
          .Num("mups", mups, 2)
          .Num("vs_async_1t", mups / base_rate, 2)
          .Num("modified_nodes", static_cast<double>(stats.modified_nodes),
               0)
          .Num("i_seg_mb", i_segment_bytes / 1e6, 1)
          .Num("update_us", stats.update_us, 0)
          .Num("sync_us", stats.sync_us, 0);
      if (method == UpdateMethod::kAsyncSingleThread) {
        row.Num("delta_sync_us",
                RunUpdateBatch(platform, data, probes, batch, method,
                               default_margin)
                    .sync_us,
                0);
      }
    }
  }
  report.PrintTable("update methods (paper Fig. 13a) and I-segment sync "
                    "time (Fig. 13b)");
  std::printf(
      "\nPaper expectation: parallel async ~3x single-threaded; "
      "synchronized bounded by per-node transfer latency; I-segment sync "
      "time grows linearly with tree size.\n");
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
