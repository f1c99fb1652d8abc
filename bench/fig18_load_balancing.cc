// Figure 18 (Section 6.5): load balancing on a CPU-bound-unfriendly
// platform.
//
// M2 pairs a capable quad-core CPU with a weak mobile GPU behind a slow
// link. Expected: without load balancing the HB+-tree runs ~25% *slower*
// than the CPU-optimized tree (communication overhead exceeds the GPU's
// help); the (D, R) discovery algorithm (Algorithm 1) moves the top
// inner levels back to the CPU, improving the HB+-tree by ~65% and
// beating the CPU tree by up to 32% (implicit) / 65% (regular).
// `hb_3set_mqps` is the control: plain HB with the balanced run's three
// buffer sets and no descent, so `hb_lb_mqps >= hb_3set_mqps` credits
// the descent alone.
//
// Flags: --n_log2, --queries_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per tree;
// `scripts/check.sh paper` gates them).

#include <cstdio>

#include "bench_support/hb_runner.h"
#include "bench_support/report.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "hybrid/load_balancer.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

template <typename CpuTree, typename Bench, typename K>
void RunTree(const char* name, const sim::PlatformSpec& platform,
             const std::vector<KeyValue<K>>& data,
             const std::vector<K>& queries, BenchReport* report) {
  // CPU-optimized baseline.
  PageRegistry cpu_registry;
  typename CpuTree::Config cpu_config;
  CpuTree cpu_tree(cpu_config, &cpu_registry);
  cpu_tree.Build(data);
  auto cpu = MeasureCpuSearch(cpu_tree, queries, platform, cpu_registry,
                              cpu_config.search_algo);

  // HB+-tree without load balancing.
  SimPlatform sim(platform);
  Bench bench(&sim, data, queries);
  PipelineStats plain = bench.Run(queries, bench.MakeConfig());

  // Discover (D, R) on a sample, then run load-balanced.
  std::vector<K> sample(queries.begin(),
                        queries.begin() +
                            std::min<std::size_t>(queries.size(), 16384));
  LoadBalanceSetting setting =
      DiscoverLoadBalance(bench.tree(), sample.data(), sample.size(),
                          bench.MakeConfig());
  const sim::CacheLevel l2_before = sim.device.l2();
  PipelineStats balanced = bench.Run(
      queries, WithLoadBalance(bench.MakeConfig(), setting));

  // The like-for-like control: plain HB with the balanced run's three
  // buffer sets and no descent, from the device L2 state the balanced run
  // started with. It separates what the extra buffer set gives from what
  // the descent gives.
  sim.device.l2() = l2_before;
  PipelineConfig three_sets = bench.MakeConfig();
  three_sets.buckets_in_flight = 3;
  PipelineStats plain_3set = bench.Run(queries, three_sets);

  report->AddRow()
      .Text("tree", name)
      .Num("cpu_mqps", cpu.estimate.mqps, 1)
      .Num("hb_mqps", plain.mqps, 1)
      .Num("hb_3set_mqps", plain_3set.mqps, 1)
      .Num("hb_lb_mqps", balanced.mqps, 1)
      .Num("d", setting.d, 0)
      .Num("r", setting.r, 4)
      .Num("lb_gain", balanced.mqps / plain.mqps, 2)
      .Num("vs_cpu", balanced.mqps / cpu.estimate.mqps, 2)
      .Num("hb_sorted", static_cast<double>(plain.sorted_buckets), 0)
      .Num("hb_lb_sorted", static_cast<double>(balanced.sorted_buckets), 0);
}

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m2");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 23);
  const std::size_t q = std::size_t{1} << args.GetInt("queries_log2", 19);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s (%s + %s)\n", platform.name.c_str(),
              platform.cpu.name.c_str(), platform.gpu.name.c_str());
  auto data = workload::GenerateDataset<Key64>(n, seed);
  auto queries = workload::MakeLookupQueries(data, seed + 1);
  queries.resize(std::min(q, queries.size()));

  BenchReport report("fig18_load_balancing");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("queries", static_cast<double>(queries.size()));
  report.MetaNum("seed", static_cast<double>(seed));
  RunTree<ImplicitBTree<Key64>, HbImplicitBench<Key64>, Key64>(
      "implicit", platform, data, queries, &report);
  RunTree<RegularBTree<Key64>, HbRegularBench<Key64>, Key64>(
      "regular", platform, data, queries, &report);
  report.PrintTable("load balancing on M2 (paper Fig. 18)");
  std::printf(
      "\nPaper expectation: plain HB ~25%% below the CPU tree; load "
      "balancing +65%%; balanced HB up to +32%% (implicit) / +65%% "
      "(regular) over the CPU tree.\n");
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
