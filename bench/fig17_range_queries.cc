// Figure 17 (Section 6.4): range query throughput.
//
// Range queries retrieving 1..32 matching keys on the CPU-optimized and
// HB+-trees (implicit and regular). Expected: as the match count grows,
// leaf traversal dominates, implicit and regular converge, and the
// HB+-tree's advantage shrinks from >80% (<=8 matches) to ~22% (32).
//
// Flags: --n_log2, --queries_log2, --platform, --seed, and
// --metrics_json=<path> (hbtree.bench.v1 rows, one per match count;
// best_ratio = best HB / best CPU; `scripts/check.sh paper` gates them).

#include <cstdio>

#include "bench_support/hb_runner.h"
#include "cpubtree/implicit_btree.h"
#include "cpubtree/regular_btree.h"
#include "hybrid/range_pipeline.h"
#include "workload/paper.h"

namespace hbtree::bench {
namespace {

/// CPU tree: modelled throughput of full range scans.
template <typename Tree, typename K>
double CpuRangeMqps(const Tree& tree, const std::vector<RangeQuery<K>>& rq,
                    const sim::PlatformSpec& platform,
                    const PageRegistry& registry) {
  std::vector<KeyValue<K>> out(64);
  auto m = MeasureCpuOp(
      platform, registry, tree.config().search_algo, ModelOptions{},
      [&](sim::CpuTracer& tracer, std::size_t i) {
        const auto& query = rq[i % rq.size()];
        tree.RangeScan(query.first_key, query.match_count, out.data(),
                       &tracer);
      });
  return m.estimate.mqps;
}

/// HB tree: the GPU resolves each range's start position and the CPU
/// scans the leaf chain (RunRangePipeline). The leaf stage runs at the
/// scan rate traced for this match count.
template <typename Bench, typename K>
double HbRangeMqps(Bench& bench, const std::vector<RangeQuery<K>>& rq,
                   int matches, const sim::PlatformSpec& platform) {
  const auto& host = bench.tree().host_tree();
  std::vector<KeyValue<K>> out(matches);
  HbCpuRates rates = bench.rates();
  rates.leaf_queries_per_us =
      MeasureCpuOp(platform, bench.registry(), host.config().search_algo,
                   ModelOptions{},
                   [&](sim::CpuTracer& tracer, std::size_t i) {
                     const RangeQuery<K>& query = rq[i % rq.size()];
                     const auto leaf = LeafOf(host, query.first_key);
                     tracer.OnQueryStart();
                     host.ScanLeaves(leaf, query.first_key,
                                     query.match_count, out.data(), &tracer);
                     tracer.OnQueryEnd();
                   })
          .estimate.mqps;
  return RunRangePipeline(bench.tree(), rq.data(), rq.size(), matches,
                          PipelineCosts(rates, platform))
      .mqps;
}

void Run(const Args& args) {
  sim::PlatformSpec platform = PlatformFromArgs(args, "m1");
  const std::size_t n = std::size_t{1} << args.GetInt("n_log2", 23);
  const std::size_t q = std::size_t{1} << args.GetInt("queries_log2", 18);
  std::uint64_t seed = args.GetInt("seed", 42);

  std::printf("Platform: %s, n=%zu (paper uses 128M)\n",
              platform.name.c_str(), n);
  auto data = workload::GenerateDataset<Key64>(n, seed);

  BenchReport report("fig17_range_queries");
  report.Meta("platform", platform.name);
  report.MetaNum("n", static_cast<double>(n));
  report.MetaNum("queries", static_cast<double>(q));
  report.MetaNum("seed", static_cast<double>(seed));

  PageRegistry ci_registry, cr_registry;
  ImplicitBTree<Key64>::Config ci_config;
  ImplicitBTree<Key64> cpu_implicit(ci_config, &ci_registry);
  cpu_implicit.Build(data);
  RegularBTree<Key64>::Config cr_config;
  RegularBTree<Key64> cpu_regular(cr_config, &cr_registry);
  cpu_regular.Build(data);

  SimPlatform sim_i(platform), sim_r(platform);
  auto warm = workload::MakeLookupQueries(data, seed + 9);
  warm.resize(std::min<std::size_t>(warm.size(), 1 << 17));
  HbImplicitBench<Key64> hb_implicit(&sim_i, data, warm);
  HbRegularBench<Key64> hb_regular(&sim_r, data, warm);

  for (int matches : {1, 2, 4, 8, 16, 32}) {
    auto rq = workload::MakeRangeQueries(data, q, matches, seed + matches);
    double ci = CpuRangeMqps<ImplicitBTree<Key64>, Key64>(
        cpu_implicit, rq, platform, ci_registry);
    double cr = CpuRangeMqps<RegularBTree<Key64>, Key64>(
        cpu_regular, rq, platform, cr_registry);
    double hi = HbRangeMqps(hb_implicit, rq, matches, platform);
    double hr = HbRangeMqps(hb_regular, rq, matches, platform);

    report.AddRow()
        .Num("matches", matches, 0)
        .Num("cpu_impl_mqps", ci, 1)
        .Num("cpu_reg_mqps", cr, 1)
        .Num("hb_impl_mqps", hi, 1)
        .Num("hb_reg_mqps", hr, 1)
        .Num("best_ratio", std::max(hi, hr) / std::max(ci, cr), 2);
  }
  report.PrintTable("range query throughput MQPS (paper Fig. 17)");
  std::printf(
      "\nPaper expectation: HB+-tree >80%% faster up to 8 matches, "
      "shrinking to ~22%% at 32; implicit and regular converge as leaf "
      "traversal dominates.\n");
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
