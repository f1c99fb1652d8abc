#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hybrid/batch_update.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_implicit.h"
#include "hybrid/hb_regular.h"
#include "hybrid/load_balancer.h"
#include "sim/platform.h"
#include "workload/paper.h"

namespace hbtree {
namespace {

struct Fixture64 {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  PageRegistry registry;
  gpu::Device device{platform.gpu};
  gpu::TransferEngine transfer{&device, platform.pcie};
};

template <typename K>
class HybridTypedTest : public ::testing::Test {};

using KeyTypes = ::testing::Types<Key64, Key32>;
TYPED_TEST_SUITE(HybridTypedTest, KeyTypes);

TYPED_TEST(HybridTypedTest, ImplicitPipelineMatchesHostSearch) {
  using K = TypeParam;
  Fixture64 fx;
  typename HBImplicitTree<K>::Config config;
  HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(100000, /*seed=*/1);
  ASSERT_TRUE(tree.Build(data));
  auto queries = workload::MakeLookupQueries(data, /*seed=*/2);
  queries.resize(40000);

  PipelineConfig pconfig;
  pconfig.bucket_size = 4096;
  pconfig.cpu_queries_per_us = 10.0;
  std::vector<LookupResult<K>> results;
  PipelineStats stats =
      RunSearchPipeline(tree, queries.data(), queries.size(), pconfig,
                        &results);
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_GT(stats.mqps, 0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = tree.host_tree().Search(queries[i]);
    ASSERT_EQ(results[i].found, expect.found) << i;
    ASSERT_EQ(results[i].value, expect.value) << i;
  }
}

TYPED_TEST(HybridTypedTest, RegularPipelineMatchesHostSearch) {
  using K = TypeParam;
  Fixture64 fx;
  typename HBRegularTree<K>::Config config;
  HBRegularTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(100000, /*seed=*/3);
  ASSERT_TRUE(tree.Build(data));
  auto queries = workload::MakeLookupQueries(data, /*seed=*/4);
  queries.resize(30000);

  PipelineConfig pconfig;
  pconfig.bucket_size = 4096;
  pconfig.cpu_queries_per_us = 10.0;
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), pconfig, &results);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = tree.host_tree().Search(queries[i]);
    ASSERT_EQ(results[i].found, expect.found) << i;
    ASSERT_EQ(results[i].value, expect.value) << i;
  }
}

TYPED_TEST(HybridTypedTest, PipelineHandlesMisses) {
  using K = TypeParam;
  Fixture64 fx;
  typename HBImplicitTree<K>::Config config;
  HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(50000, /*seed=*/5);
  ASSERT_TRUE(tree.Build(data));
  auto queries = workload::MakeDistributedQueries<K>(
      20000, workload::Distribution::kUniform, 6);

  PipelineConfig pconfig;
  pconfig.bucket_size = 2048;
  pconfig.cpu_queries_per_us = 10.0;
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), pconfig, &results);
  for (std::size_t i = 0; i < queries.size(); i += 7) {
    auto expect = tree.host_tree().Search(queries[i]);
    ASSERT_EQ(results[i].found, expect.found) << i;
  }
}

TYPED_TEST(HybridTypedTest, LoadBalancedPipelineIsCorrect) {
  using K = TypeParam;
  Fixture64 fx;
  typename HBImplicitTree<K>::Config config;
  HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(200000, /*seed=*/7);
  ASSERT_TRUE(tree.Build(data));
  auto queries = workload::MakeLookupQueries(data, /*seed=*/8);
  queries.resize(20000);

  PipelineConfig pconfig;
  pconfig.bucket_size = 2048;
  pconfig.cpu_queries_per_us = 10.0;
  pconfig.cpu_descend_levels = 2;
  pconfig.cpu_split_ratio = 0.6;
  pconfig.cpu_descend_us_per_level = 0.001;
  pconfig.buckets_in_flight = 3;
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), pconfig, &results);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].found) << i;
  }
}

TYPED_TEST(HybridTypedTest, BatchUpdateMethodsKeepDeviceMirrorConsistent) {
  using K = TypeParam;
  for (UpdateMethod method :
       {UpdateMethod::kAsyncSingleThread, UpdateMethod::kAsyncParallel,
        UpdateMethod::kSynchronized}) {
    Fixture64 fx;
    typename HBRegularTree<K>::Config config;
    config.tree.leaf_fill = 0.7;
    HBRegularTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
    auto data = workload::GenerateDataset<K>(60000, /*seed=*/9);
    ASSERT_TRUE(tree.Build(data));

    auto batch = workload::MakeUpdateBatch<K>(
        data, 8000, /*insert_fraction=*/0.6, 10);
    BatchUpdateConfig uconfig;
    uconfig.real_threads = 3;
    BatchUpdateStats stats = RunBatchUpdate(tree, batch, method, uconfig);
    EXPECT_EQ(stats.queries, batch.size());
    EXPECT_GT(stats.applied, 0u);
    tree.host_tree().Validate();

    // All batch effects visible on the host tree.
    for (const auto& update : batch) {
      bool found = tree.host_tree().Search(update.pair.key).found;
      if (update.kind == UpdateQuery<K>::Kind::kInsert) {
        EXPECT_TRUE(found);
      } else {
        EXPECT_FALSE(found);
      }
    }

    // The device mirror must agree with the host: run a pipeline search
    // over a sample of keys and compare.
    auto queries = workload::MakeLookupQueries(data, /*seed=*/11);
    queries.resize(10000);
    PipelineConfig pconfig;
    pconfig.bucket_size = 2048;
    pconfig.cpu_queries_per_us = 10.0;
    std::vector<LookupResult<K>> results;
    RunSearchPipeline(tree, queries.data(), queries.size(), pconfig,
                      &results);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      auto expect = tree.host_tree().Search(queries[i]);
      ASSERT_EQ(results[i].found, expect.found)
          << UpdateMethodName(method) << " query " << i;
      ASSERT_EQ(results[i].value, expect.value);
    }
  }
}

TYPED_TEST(HybridTypedTest, ImplicitRebuildResyncsDevice) {
  using K = TypeParam;
  Fixture64 fx;
  typename HBImplicitTree<K>::Config config;
  HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(30000, /*seed=*/12);
  ASSERT_TRUE(tree.Build(data));
  // Apply a batch by rebuild (the implicit tree's only update path).
  auto data2 = workload::GenerateDataset<K>(35000, /*seed=*/13);
  ASSERT_TRUE(tree.Build(data2));
  double sync_us = tree.SyncISegment();
  EXPECT_GT(sync_us, 0);

  auto queries = workload::MakeLookupQueries(data2, /*seed=*/14);
  queries.resize(8000);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10.0;
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), pconfig, &results);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].found) << i;
  }
}

TYPED_TEST(HybridTypedTest, PipelineHandlesQueriesAboveMaximum) {
  // Regression: the GPU kernel must clamp padding descents exactly like
  // the host (out-of-bounds device reads aborted before the fix).
  using K = TypeParam;
  Fixture64 fx;
  typename HBImplicitTree<K>::Config config;
  HBImplicitTree<K> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<K>(70000, /*seed=*/21);
  ASSERT_TRUE(tree.Build(data));
  std::vector<K> queries(4096, static_cast<K>(KeyTraits<K>::kMax - 1));
  for (std::size_t i = 0; i < queries.size(); i += 2) {
    queries[i] = data[(i * 31) % data.size()].key;
  }
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10.0;
  std::vector<LookupResult<K>> results;
  RunSearchPipeline(tree, queries.data(), queries.size(), pconfig, &results);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].found, i % 2 == 0) << i;
  }
}

TEST(HybridDeterminism, IdenticalRunsProduceIdenticalSimulatedTimings) {
  // Reproducibility contract: same seed, same platform -> bit-identical
  // simulated stats (EXPERIMENTS.md relies on this).
  auto run = [] {
    Fixture64 fx;
    HBImplicitTree<Key64>::Config config;
    HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device,
                               &fx.transfer);
    auto data = workload::GenerateDataset<Key64>(60000, /*seed=*/99);
    EXPECT_TRUE(tree.Build(data));
    auto queries = workload::MakeLookupQueries(data, /*seed=*/100);
    queries.resize(16384);
    PipelineConfig pconfig;
    pconfig.bucket_size = 2048;
    pconfig.cpu_queries_per_us = 25.0;
    return RunSearchPipeline(tree, queries.data(), queries.size(), pconfig);
  };
  PipelineStats a = run();
  PipelineStats b = run();
  EXPECT_EQ(a.total_us, b.total_us);
  EXPECT_EQ(a.mqps, b.mqps);
  EXPECT_EQ(a.kernel.memory_transactions, b.kernel.memory_transactions);
  EXPECT_EQ(a.kernel.dram_bytes, b.kernel.dram_bytes);
  EXPECT_EQ(a.avg_latency_us, b.avg_latency_us);
}

TEST(HybridCapacity, ISegmentThatDoesNotFitIsRejected) {
  sim::PlatformSpec platform = sim::PlatformSpec::M1();
  platform.gpu.memory_bytes = 512 * 1024;  // tiny device
  PageRegistry registry;
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &registry, &device, &transfer);
  auto data = workload::GenerateDataset<Key64>(2000000, /*seed=*/15);
  EXPECT_FALSE(tree.Build(data));  // I-segment exceeds device memory
  // Host tree still queryable.
  EXPECT_TRUE(tree.host_tree().Search(data[5].key).found);
}

TEST(HybridScheduling, StrategiesOrderAsInFigure10) {
  // With synthetic stage times the emergent per-bucket period must be
  // sequential >= pipelined >= double-buffered.
  using pipeline_internal::Scheduler;
  auto run = [](BucketStrategy strategy) {
    Scheduler scheduler(strategy, /*buckets_in_flight=*/2);
    std::vector<double> ends;
    for (int i = 0; i < 50; ++i) {
      ends.push_back(scheduler.ScheduleBucket(0, /*t1=*/10, /*t2=*/60,
                                              /*t3=*/5, /*t4=*/50));
    }
    return ends.back() / 50.0;  // average period
  };
  double seq = run(BucketStrategy::kSequential);
  double pip = run(BucketStrategy::kPipelined);
  double dbl = run(BucketStrategy::kDoubleBuffered);
  EXPECT_GT(seq, pip);
  EXPECT_GT(pip, dbl);
  // Sequential period ~ T1+T2+T4 (the result stream T3 lies inside T2);
  // double-buffered ~ max(T2, T4).
  EXPECT_NEAR(seq, 120.0, 2.0);
  EXPECT_NEAR(dbl, 60.0, 5.0);  // startup transient amortized over 50 buckets
}

TEST(HybridLoadBalance, DiscoveryMovesWorkToTheCpuWhenGpuIsWeak) {
  sim::PlatformSpec platform = sim::PlatformSpec::M2();
  // Exaggerate GPU weakness so the discovery must pick D > 0.
  platform.gpu.memory_bandwidth_gbps = 8.0;
  platform.gpu.sm_count = 1;
  PageRegistry registry;
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &registry, &device, &transfer);
  auto data = workload::GenerateDataset<Key64>(500000, /*seed=*/16);
  ASSERT_TRUE(tree.Build(data));
  auto queries = workload::MakeLookupQueries(data, /*seed=*/17);
  queries.resize(16384);

  PipelineConfig base;
  base.bucket_size = 2048;
  base.cpu_queries_per_us = 40.0;
  base.cpu_descend_us_per_level = 0.005;
  auto setting = DiscoverLoadBalance(tree, queries.data(), queries.size(),
                                     base);
  EXPECT_GT(setting.d, 0);
  EXPECT_GE(setting.r, 0.0);
  EXPECT_LE(setting.r, 1.0);
}

TEST(HybridLoadBalance, CpuBoundDiscoveryKeepsEveryInnerLevelOnTheGpu) {
  // The default leaf rate (1 query/us) makes the CPU stage bind from the
  // first (0, 1) sample: there is no GPU work to move, so the discovery
  // keeps D = 0 and R = 1 exactly instead of starting a search on R.
  Fixture64 fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/20);
  ASSERT_TRUE(tree.Build(data));
  auto queries = workload::MakeLookupQueries(data, /*seed=*/21);
  queries.resize(8192);

  PipelineConfig base;
  base.bucket_size = 2048;
  base.cpu_descend_us_per_level = 0.005;
  const LoadBalanceSetting setting =
      DiscoverLoadBalance(tree, queries.data(), queries.size(), base);
  EXPECT_EQ(setting.d, 0);
  EXPECT_EQ(setting.r, 1.0);
  EXPECT_LE(setting.sample_gpu_us, setting.sample_cpu_us);
}

TEST(HybridKernels, KernelStatsAreAccumulated) {
  Fixture64 fx;
  HBImplicitTree<Key64>::Config config;
  HBImplicitTree<Key64> tree(config, &fx.registry, &fx.device, &fx.transfer);
  auto data = workload::GenerateDataset<Key64>(100000, /*seed=*/18);
  ASSERT_TRUE(tree.Build(data));
  auto queries = workload::MakeLookupQueries(data, /*seed=*/19);
  queries.resize(4096);
  PipelineConfig pconfig;
  pconfig.bucket_size = 1024;
  pconfig.cpu_queries_per_us = 10.0;
  PipelineStats stats =
      RunSearchPipeline(tree, queries.data(), queries.size(), pconfig);
  EXPECT_GT(stats.kernel.warps_executed, 0u);
  EXPECT_GT(stats.kernel.memory_transactions, 0u);
  EXPECT_GT(stats.kernel.warp_instructions, 0u);
  // Every query needs one 64-byte node gather per level; teams sharing a
  // warp may coalesce when they hit the same node (always at the root),
  // so the floor is a quarter of the naive count (4 teams per warp).
  const std::uint64_t naive =
      queries.size() * tree.host_tree().height();
  EXPECT_GE(stats.kernel.memory_transactions, naive / 4);
  EXPECT_LE(stats.kernel.memory_transactions, naive + 4 * queries.size());
}

}  // namespace
}  // namespace hbtree
