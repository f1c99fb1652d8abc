// Figure 10 (Section 6.3): bucket handling strategies.
//
// Sequential, pipelined, and double-buffered bucket execution on the
// HB+-tree (implicit and regular). Expected: pipelining helps the
// implicit tree by ~56% and the regular tree by ~20%; double buffering
// lifts both to ~110% over sequential — i.e. CPU and GPU genuinely work
// concurrently.
//
// Flags: --n_log2, --queries_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per tree and
// strategy; `scripts/check.sh paper` gates them).

#include <cstdio>

#include "bench_support/hb_runner.h"
#include "bench_support/report.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

template <typename Bench, typename K>
void RunTree(const char* name, SimPlatform* sim,
             const std::vector<KeyValue<K>>& data,
             const std::vector<K>& queries, BenchReport* report) {
  Bench bench(sim, data, queries);
  double baseline = 0;
  for (BucketStrategy strategy :
       {BucketStrategy::kSequential, BucketStrategy::kPipelined,
        BucketStrategy::kDoubleBuffered}) {
    PipelineStats stats = bench.Run(queries, bench.MakeConfig(strategy));
    if (baseline == 0) baseline = stats.mqps;
    report->AddRow()
        .Text("tree", name)
        .Text("strategy", BucketStrategyName(strategy))
        .Num("mqps", stats.mqps, 1)
        .Num("vs_sequential", stats.mqps / baseline, 2)
        .Num("latency_us", stats.avg_latency_us, 1)
        .Num("sorted_buckets", static_cast<double>(stats.sorted_buckets), 0);
  }
}

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 23);
  const std::size_t q = std::size_t{1} << args.GetInt("queries_log2", 20);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s, n=%zu\n", platform.name.c_str(), n);
  auto data = workload::GenerateDataset<Key64>(n, seed);
  auto queries = workload::MakeLookupQueries(data, seed + 1);
  queries.resize(std::min(q, queries.size()));

  BenchReport report("fig10_bucket_strategies");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("queries", static_cast<double>(queries.size()));
  report.MetaNum("seed", static_cast<double>(seed));
  {
    SimPlatform sim(platform);
    RunTree<HbImplicitBench<Key64>, Key64>("implicit", &sim, data, queries,
                                           &report);
  }
  {
    SimPlatform sim(platform);
    RunTree<HbRegularBench<Key64>, Key64>("regular", &sim, data, queries,
                                          &report);
  }
  report.PrintTable("HB+-tree bucket strategies (paper Fig. 10)");
  std::printf(
      "\nPaper expectation: pipelining +56%% (implicit) / +20%% (regular); "
      "double buffering ~+110%% over sequential for both.\n");
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
