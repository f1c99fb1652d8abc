// Figure 12 (Section 6.3): impact of skewed query distributions.
//
// HB+-tree search throughput for Uniform, Normal(0.5, 0.125),
// Gamma(3, 3) and Zipf(2) query streams, normalized to Uniform.
// Expected: Normal/Gamma within ~1.1X of Uniform; Zipf up to ~2.2X —
// skew concentrates accesses, raising hit rates in the CPU caches (leaf
// lines) and the GPU L2 (inner nodes).
//
// Flags: --n_log2, --queries_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per tree and
// distribution; `scripts/check.sh paper` gates them).

#include <cstdio>

#include "bench_support/hb_runner.h"
#include "bench_support/report.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

template <typename Bench>
void RunTree(const char* name, const sim::PlatformSpec& platform,
             const std::vector<KeyValue<Key64>>& data, std::size_t q,
             std::uint64_t seed, BenchReport* report) {
  double uniform_mqps = 0;
  for (workload::Distribution distribution :
       {workload::Distribution::kUniform, workload::Distribution::kNormal,
        workload::Distribution::kGamma, workload::Distribution::kZipf}) {
    auto queries = workload::MakeDistributedQueries<Key64>(
        q, distribution, seed + 7);
    // Fresh device per distribution so L2 state is comparable.
    SimPlatform sim(platform);
    Bench bench(&sim, data, queries);
    PipelineStats stats = bench.Run(queries, bench.MakeConfig());
    if (distribution == workload::Distribution::kUniform) {
      uniform_mqps = stats.mqps;
    }
    report->AddRow()
        .Text("tree", name)
        .Text("distribution", workload::DistributionName(distribution))
        .Num("mqps", stats.mqps, 1)
        .Num("vs_uniform", stats.mqps / uniform_mqps, 2)
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

  BenchReport report("fig12_distributions");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("queries", static_cast<double>(q));
  report.MetaNum("seed", static_cast<double>(seed));
  RunTree<HbImplicitBench<Key64>>("implicit", platform, data, q, seed,
                                  &report);
  RunTree<HbRegularBench<Key64>>("regular", platform, data, q, seed,
                                 &report);
  report.PrintTable("query distributions (paper Fig. 12)");
  std::printf(
      "\nPaper expectation: Normal/Gamma within 1.1x of Uniform; Zipf up "
      "to 2.2x faster.\n");
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
