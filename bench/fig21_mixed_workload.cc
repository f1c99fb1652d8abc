// Figure 21 (Appendix B.3): concurrent search and update queries.
//
// Query-processing threads resolve a stream with a growing fraction of
// update queries on the regular HB+-tree, comparing synchronous and
// asynchronous I-segment maintenance. Expected: the synchronous
// approach's throughput decays faster with the update ratio (each
// modified inner node pays a transfer-initialization latency); even the
// 100%-search point runs below the pure lookup methods because of the
// mutex/synchronization overhead in the query-processing threads.

//
// Flags: --n_log2, --ops_log2, --platform, --seed, plus the shared
// observability pair: --metrics_json=<path> (hbtree.bench.v1 rows with
// the default metrics registry embedded) and --trace_out=<path> (Chrome
// trace JSON — update.batch/update.sync spans show the maintenance
// work; load in Perfetto). `scripts/check.sh paper` gates the rows.

#include <cstdio>

#include "bench_support/hb_runner.h"
#include "hybrid/batch_update.h"

namespace hbtree::bench {
namespace {

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 22);
  const std::size_t ops = std::size_t{1} << args.GetInt("ops_log2", 17);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s, n=%zu\n", platform.name.c_str(), n);
  auto data = GenerateDataset<Key64>(n, seed);

  MaybeStartTrace(args);
  BenchReport report("fig21_mixed_workload");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("ops", static_cast<double>(ops));
  report.MetaNum("seed", static_cast<double>(seed));
  for (double ratio : {0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    double mops[2];
    int i = 0;
    for (UpdateMethod method :
         {UpdateMethod::kSynchronized, UpdateMethod::kAsyncParallel}) {
      SimPlatform sim(platform);
      sim.device.set_metrics_registry(&obs::MetricsRegistry::Default());
      PageRegistry registry;
      HBRegularTree<Key64>::Config config;
      // Near-full leaf lines: the steady state of a long-running index,
      // where most inserts redistribute lines and touch the inner node.
      config.tree.leaf_fill = 0.95;
      HBRegularTree<Key64> tree(config, &registry, &sim.device,
                                &sim.transfer);
      HBTREE_CHECK(tree.Build(data));

      auto searches = MakeLookupQueries(data, seed + 1);
      searches.resize(std::min(ops, searches.size()));
      auto updates = MakeUpdateBatch<Key64>(
          data, static_cast<std::size_t>(ops * ratio) + 1,
          /*insert_fraction=*/0.5, seed + 2);

      BatchUpdateConfig uconfig;
      uconfig.model_threads = platform.cpu.threads;
      uconfig.cpu_update_us = EstimateUpdateCostUs(tree.host_tree(),
                                                   searches, platform,
                                                   registry);
      const double cpu_search_us = uconfig.cpu_update_us / 1.3;
      MixedWorkloadStats stats =
          RunMixedWorkload(tree, searches, updates, ratio, method, uconfig,
                           cpu_search_us);
      mops[i++] = stats.mops();
    }
    report.AddRow()
        .Num("update_pct", ratio * 100, 0)
        .Num("sync_mqps", mops[0], 2)
        .Num("async_mqps", mops[1], 2)
        .Num("sync_over_async", mops[0] / mops[1], 2);
  }
  report.PrintTable("concurrent search/update (paper Fig. 21)");
  MaybeWriteTrace(args);
  std::printf(
      "\nPaper expectation: synchronous throughput decays faster as the "
      "update share grows; asynchronous holds up better.\n");
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Default().Collect();
  MaybeWriteReport(args, report, &snapshot);
}

}  // namespace
}  // namespace hbtree::bench

int main(int argc, char** argv) {
  hbtree::bench::Args args(argc, argv);
  args.PrintActive();
  hbtree::bench::Run(args);
  return 0;
}
