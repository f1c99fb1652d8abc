// Figure 11 (Section 6.3): bucket size sweep.
//
// Throughput and latency of the double-buffered HB+-tree for bucket
// sizes 8K..64K. Expected: throughput grows with the bucket size for the
// implicit tree and saturates at ~16K for the regular tree, while average
// latency keeps growing (~1.7X at 32K, ~2.7X at 64K vs 16K) — which is
// why the paper settles on M = 16K.
//
// Flags: --n_log2, --queries_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per tree and bucket
// size; `scripts/check.sh paper` gates them).

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
  const int buckets[] = {8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024};
  PipelineStats stats[4];
  for (int i = 0; i < 4; ++i) {
    stats[i] = bench.Run(
        queries, bench.MakeConfig(BucketStrategy::kDoubleBuffered,
                                  buckets[i]));
  }
  const double latency_16k = stats[1].avg_latency_us;
  for (int i = 0; i < 4; ++i) {
    report->AddRow()
        .Text("tree", name)
        .Num("bucket", buckets[i], 0)
        .Num("mqps", stats[i].mqps, 1)
        .Num("latency_us", stats[i].avg_latency_us, 1)
        .Num("latency_vs_16k", stats[i].avg_latency_us / latency_16k, 2)
        .Num("sorted_buckets", static_cast<double>(stats[i].sorted_buckets),
             0);
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

  BenchReport report("fig11_bucket_size");
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
  report.PrintTable("bucket size sweep (paper Fig. 11)");
  std::printf(
      "\nPaper expectation: implicit throughput grows with M; regular flat "
      "beyond 16K; latency ~1.7x at 32K and ~2.7x at 64K.\n");
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
