// Determinism and distribution tests for the workload generators
// (src/workload/): the YCSB-style datasets, key choosers and op streams,
// and the paper's generators (paper.h). The golden values pin the exact
// streams: the YCSB generators use only fixed-width integer math (Q32.32
// fixed point for Zipf/zeta, xoshiro256**/SplitMix64 for randomness — no
// libc rand, no libm pow/log), so identical seeds must produce identical
// key and op streams on every platform. A golden mismatch means the stream
// format changed and every checked-in workload baseline is invalid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/random.h"
#include "workload/dataset.h"
#include "workload/fixed_point.h"
#include "workload/key_chooser.h"
#include "workload/op_stream.h"
#include "workload/paper.h"
#include "workload/spec.h"

namespace hbtree::workload {
namespace {

// ---------------------------------------------------------------------------
// Q32.32 fixed point.
// ---------------------------------------------------------------------------

TEST(FixedPoint, BasicIdentities) {
  EXPECT_EQ(MulQ32(kQ32One, kQ32One), kQ32One);
  EXPECT_EQ(DivQ32(kQ32One, kQ32One), kQ32One);
  EXPECT_EQ(Log2Q32(kQ32One), 0u);
  EXPECT_EQ(Log2Q32(Q32{4} << 32), Q32{2} << 32);
  EXPECT_EQ(Exp2Q32(0), kQ32One);
  EXPECT_EQ(Exp2Q32(Q32{3} << 32), Q32{8} << 32);
}

TEST(FixedPoint, MatchesDoubleMathClosely) {
  // Accuracy only (determinism is the golden tests' job): the fixed-point
  // log/exp/pow track libm well below anything a key distribution can
  // observe.
  for (double x : {1.5, 2.0, 3.14159, 10.0, 1000.0, 123456.789}) {
    EXPECT_NEAR(FromQ32(Log2Q32(ToQ32(x))), std::log2(x), 1e-6) << x;
  }
  for (double x : {0.1, 0.25, 0.5, 0.99, 3.99, 7.5}) {
    EXPECT_NEAR(FromQ32(Exp2Q32(ToQ32(x))), std::exp2(x), 1e-4) << x;
  }
  for (std::uint64_t i : {2ull, 3ull, 10ull, 1000ull, 1000000ull}) {
    EXPECT_NEAR(FromQ32(InvPowQ32(i, ToQ32(0.99))),
                std::pow(static_cast<double>(i), -0.99), 1e-6)
        << i;
  }
  EXPECT_NEAR(FromQ32(PowFracQ32(ToQ32(0.37), ToQ32(100.0))),
              std::pow(0.37, 100.0), 1e-6);
}

TEST(FixedPoint, GoldenZetaValues) {
  // Exact Q32.32 raw values — any platform or compiler producing a
  // different bit pattern would silently shift every Zipf stream.
  EXPECT_EQ(ZipfGenerator::Zeta(100, ToQ32(0.99)), 0x000000054b68dcd3ull);
  EXPECT_EQ(ZipfGenerator::Zeta(10000, ToQ32(0.99)), 0x0000000a396fad70ull);
  EXPECT_EQ(InvPowQ32(2, ToQ32(0.99)), 0x0000000080e3eb65ull);
}

// ---------------------------------------------------------------------------
// Key choosers.
// ---------------------------------------------------------------------------

TEST(ZipfGenerator, GoldenRankPrefix) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(42);
  const std::uint64_t expected[16] = {0,   8,  88, 568, 940, 175, 119, 323,
                                      165, 42, 90, 4,   223, 5,   112, 399};
  for (std::uint64_t want : expected) {
    EXPECT_EQ(zipf.Next(rng), want);
  }
}

TEST(ZipfGenerator, DeterministicAcrossInstances) {
  ZipfGenerator a(5000, 0.8), b(5000, 0.8);
  Rng ra(7), rb(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(ra), b.Next(rb));
}

TEST(ZipfGenerator, SkewsTowardLowRanks) {
  ZipfGenerator zipf(10000, 0.99);
  Rng rng(3);
  std::uint64_t hits_rank0 = 0, hits_top10 = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t rank = zipf.Next(rng);
    ASSERT_LT(rank, 10000u);
    hits_rank0 += rank == 0;
    hits_top10 += rank < 10;
  }
  // zipf(0.99, n=10^4): P(rank 0) ≈ 1/zeta ≈ 9.6%, P(rank < 10) ≈ 37%.
  EXPECT_GT(hits_rank0, draws / 20);
  EXPECT_GT(hits_top10, draws / 4);
}

TEST(KeyChooser, GoldenScrambledPrefix) {
  KeyChooser::Params params;
  params.kind = KeyChooserKind::kScrambledZipfian;
  KeyChooser chooser(params, 1000);
  Rng rng(42);
  const std::uint64_t expected[16] = {883, 618, 240, 426, 681, 730, 166, 148,
                                      983, 741, 935, 431, 916, 386, 451, 762};
  for (std::uint64_t want : expected) {
    EXPECT_EQ(chooser.Next(rng), want);
  }
}

TEST(KeyChooser, ScrambledSpreadsTheHotSet) {
  // The same ranks, scrambled, must not concentrate in a contiguous
  // low-index prefix (that regime is kZipfian's job).
  KeyChooser::Params params;
  params.kind = KeyChooserKind::kScrambledZipfian;
  KeyChooser chooser(params, 10000);
  Rng rng(11);
  std::uint64_t low_half = 0;
  for (int i = 0; i < 4000; ++i) low_half += chooser.Next(rng) < 5000;
  EXPECT_GT(low_half, 1000u);
  EXPECT_LT(low_half, 3000u);
}

TEST(KeyChooser, LatestPrefersNewestRecords) {
  KeyChooser::Params params;
  params.kind = KeyChooserKind::kLatest;
  KeyChooser chooser(params, 1000);
  Rng rng(5);
  std::uint64_t newest_decile = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t idx = chooser.Next(rng, /*inserted=*/100);
    ASSERT_LT(idx, 1100u);
    newest_decile += idx >= 990;  // newest 10% of the grown domain
  }
  EXPECT_GT(newest_decile, 1000u);
}

TEST(KeyChooser, HotspotConcentratesOps) {
  KeyChooser::Params params;
  params.kind = KeyChooserKind::kHotspot;
  params.hot_key_fraction = 0.1;
  params.hot_op_fraction = 0.9;
  KeyChooser chooser(params, 10000);
  Rng rng(13);
  std::uint64_t hot = 0;
  const int draws = 10000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t idx = chooser.Next(rng);
    ASSERT_LT(idx, 10000u);
    hot += idx < 1000;
  }
  EXPECT_GT(hot, draws * 85 / 100);
  EXPECT_LT(hot, draws * 95 / 100);
}

TEST(KeyChooser, UniformCoversTheGrownDomain) {
  KeyChooser::Params params;
  params.kind = KeyChooserKind::kUniform;
  KeyChooser chooser(params, 100);
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t idx = chooser.Next(rng, /*inserted=*/20);
    ASSERT_LT(idx, 120u);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 120u);
}

// ---------------------------------------------------------------------------
// Datasets.
// ---------------------------------------------------------------------------

TEST(Dataset, SequentialIsSortedWithAppendHeadroom) {
  const BootstrapDataset ds = MakeSequentialDataset(1000, /*value_seed=*/3);
  ASSERT_EQ(ds.pairs.size(), 1000u);
  EXPECT_TRUE(ds.append);
  for (std::size_t i = 1; i < ds.pairs.size(); ++i) {
    EXPECT_LT(ds.pairs[i - 1].key, ds.pairs[i].key);
  }
  EXPECT_GT(ds.append_base, ds.pairs.back().key);
  // Values recomputable from the key alone.
  for (const auto& pair : ds.pairs) {
    EXPECT_EQ(pair.value, BootstrapValue(pair.key, 3));
  }
}

TEST(Dataset, UniformIsSortedUniqueAndDeterministic) {
  const BootstrapDataset a = MakeUniformDataset(2000, 9);
  const BootstrapDataset b = MakeUniformDataset(2000, 9);
  ASSERT_EQ(a.pairs.size(), 2000u);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_FALSE(a.append);
  for (std::size_t i = 1; i < a.pairs.size(); ++i) {
    EXPECT_LT(a.pairs[i - 1].key, a.pairs[i].key);
  }
}

TEST(Dataset, SyntheticOsmKeysAreClustered) {
  const std::vector<Key64> keys = SyntheticOsmKeys(4096, 21);
  ASSERT_GE(keys.size(), 4000u);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LT(keys[i - 1], keys[i]);
  }
  // Clustered keys: most adjacent gaps are small, a few are huge. A
  // uniform draw over [2^32, 2^63) would make the median gap ~2^50.
  std::vector<Key64> gaps;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    gaps.push_back(keys[i] - keys[i - 1]);
  }
  std::sort(gaps.begin(), gaps.end());
  EXPECT_LT(gaps[gaps.size() / 2], Key64{1} << 24);
  EXPECT_GT(gaps.back(), Key64{1} << 40);
}

TEST(Dataset, KeyFileRoundTripAndErrors) {
  const std::string path = testing::TempDir() + "/keys.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# comment\n42\n  7\n18446744073709551615\n\n", f);
    std::fclose(f);
  }
  std::vector<Key64> keys;
  ASSERT_TRUE(LoadKeyFile(path, &keys).ok());
  EXPECT_EQ(keys, (std::vector<Key64>{42, 7, 18446744073709551615ull}));

  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("12\nnot_a_number\n", f);
    std::fclose(f);
  }
  keys.clear();
  EXPECT_FALSE(LoadKeyFile(path, &keys).ok());
  EXPECT_FALSE(LoadKeyFile("/nonexistent/osm.txt", &keys).ok());
}

TEST(Dataset, OsmLoaderFallsBackToSynthetic) {
  const BootstrapDataset ds = MakeOsmDataset(1024, 5, /*path=*/"");
  EXPECT_GE(ds.pairs.size(), 1000u);
  EXPECT_FALSE(ds.append);
  const BootstrapDataset again = MakeOsmDataset(1024, 5, /*path=*/"");
  EXPECT_EQ(ds.pairs, again.pairs);
}

TEST(Dataset, OsmLoaderUsesTheFile) {
  const std::string path = testing::TempDir() + "/osm_keys.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (int i = 1; i <= 64; ++i) std::fprintf(f, "%d\n", i * 1000);
    std::fclose(f);
  }
  const BootstrapDataset ds = MakeOsmDataset(64, 5, path);
  ASSERT_EQ(ds.pairs.size(), 64u);
  EXPECT_EQ(ds.pairs.front().key, 1000u);
  EXPECT_EQ(ds.pairs.back().key, 64000u);
}

// ---------------------------------------------------------------------------
// Workload specs.
// ---------------------------------------------------------------------------

TEST(WorkloadSpec, StandardMixesMatchYcsb) {
  for (char mix : {'a', 'b', 'c', 'd', 'e', 'f'}) {
    const WorkloadSpec spec = WorkloadSpec::YcsbMix(mix);
    EXPECT_EQ(spec.read_bp + spec.update_bp + spec.insert_bp + spec.scan_bp +
                  spec.rmw_bp,
              10000)
        << mix;
  }
  EXPECT_EQ(WorkloadSpec::YcsbMix('a').update_bp, 5000);
  EXPECT_EQ(WorkloadSpec::YcsbMix('b').read_bp, 9500);
  EXPECT_EQ(WorkloadSpec::YcsbMix('c').read_bp, 10000);
  EXPECT_EQ(WorkloadSpec::YcsbMix('d').chooser.kind, KeyChooserKind::kLatest);
  EXPECT_EQ(WorkloadSpec::YcsbMix('e').scan_bp, 9500);
  EXPECT_EQ(WorkloadSpec::YcsbMix('f').rmw_bp, 5000);
}

TEST(WorkloadSpec, MatrixNamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const Scenario& scenario : ScenarioMatrix()) {
    EXPECT_TRUE(names.insert(scenario.spec.name).second)
        << scenario.spec.name;
    Scenario found;
    ASSERT_TRUE(FindScenario(scenario.spec.name, &found));
    EXPECT_EQ(found.spec.name, scenario.spec.name);
  }
  EXPECT_GE(names.size(), 11u);  // a-f + hotspot/zipfian/scan/rmw/insert/osm
  Scenario missing;
  EXPECT_FALSE(FindScenario("nope", &missing));
}

// ---------------------------------------------------------------------------
// Op streams.
// ---------------------------------------------------------------------------

TEST(OpStream, GoldenPrefix) {
  const BootstrapDataset ds = MakeSequentialDataset(1024, /*value_seed=*/7);
  const WorkloadSpec spec = WorkloadSpec::YcsbMix('a');
  OpStream stream(spec, &ds, /*client=*/0, /*clients=*/2, /*seed=*/7);
  const Op expected[8] = {
      {OpKind::kUpdate, 552, 17162217024170323296ull, 0},
      {OpKind::kUpdate, 7240, 11801873741075390076ull, 0},
      {OpKind::kRead, 7240, 0ull, 0},
      {OpKind::kUpdate, 3528, 14314900561852409626ull, 0},
      {OpKind::kRead, 3664, 0ull, 0},
      {OpKind::kUpdate, 6024, 5487846310616360942ull, 0},
      {OpKind::kUpdate, 7240, 5702764397473748540ull, 0},
      {OpKind::kRead, 4848, 0ull, 0},
  };
  for (const Op& want : expected) {
    EXPECT_EQ(stream.Next(), want);
  }
}

TEST(OpStream, IdenticalSeedsIdenticalStreams) {
  const BootstrapDataset ds = MakeSequentialDataset(2048, 3);
  for (const Scenario& scenario : ScenarioMatrix()) {
    if (scenario.dataset != DatasetKind::kSequential) continue;
    OpStream a(scenario.spec, &ds, 1, 4, 99);
    OpStream b(scenario.spec, &ds, 1, 4, 99);
    EXPECT_EQ(a.Take(512), b.Take(512)) << scenario.spec.name;
  }
}

TEST(OpStream, MixRatiosMatchTheSpec) {
  const BootstrapDataset ds = MakeSequentialDataset(4096, 1);
  const WorkloadSpec spec = WorkloadSpec::YcsbMix('b');
  OpStream stream(spec, &ds, 0, 1, 31);
  int reads = 0, updates = 0;
  const int n = 20000;
  for (const Op& op : stream.Take(n)) {
    reads += op.kind == OpKind::kRead;
    updates += op.kind == OpKind::kUpdate;
  }
  EXPECT_EQ(reads + updates, n);
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.95, 0.01);
}

TEST(OpStream, ClientsNeverMutateEachOthersKeys) {
  const BootstrapDataset seq = MakeSequentialDataset(4096, 2);
  const BootstrapDataset uni = MakeUniformDataset(4096, 2);
  for (const BootstrapDataset* ds : {&seq, &uni}) {
    std::vector<std::set<Key64>> mutated(3);
    for (int c = 0; c < 3; ++c) {
      OpStream stream(WorkloadSpec::YcsbMix('a'), ds, c, 3, 5);
      for (const Op& op : stream.Take(4000)) {
        if (op.kind != OpKind::kRead) mutated[c].insert(op.key);
      }
      EXPECT_GT(mutated[c].size(), 100u);
    }
    for (int a = 0; a < 3; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        std::vector<Key64> overlap;
        std::set_intersection(mutated[a].begin(), mutated[a].end(),
                              mutated[b].begin(), mutated[b].end(),
                              std::back_inserter(overlap));
        EXPECT_TRUE(overlap.empty())
            << DatasetKindName(ds->kind) << ": clients " << a << " and " << b
            << " share " << overlap.size() << " mutated keys";
      }
    }
  }
}

TEST(OpStream, InsertsMintFreshDisjointKeys) {
  // Append policy (sequential dataset): fresh keys climb past the
  // bootstrap set. Scatter policy (uniform dataset): fresh keys avoid
  // the bootstrap set and stay per-client disjoint.
  for (const BootstrapDataset& ds :
       {MakeSequentialDataset(2048, 4), MakeUniformDataset(2048, 4)}) {
    std::set<Key64> bootstrap;
    for (const auto& pair : ds.pairs) bootstrap.insert(pair.key);
    std::set<Key64> fresh;
    for (int c = 0; c < 2; ++c) {
      OpStream stream(WorkloadSpec::InsertRatio(5000), &ds, c, 2, 8);
      for (const Op& op : stream.Take(2000)) {
        if (op.kind != OpKind::kInsert) continue;
        EXPECT_EQ(bootstrap.count(op.key), 0u);
        EXPECT_TRUE(fresh.insert(op.key).second)
            << "key " << op.key << " minted twice";
      }
    }
    EXPECT_GT(fresh.size(), 1500u);
  }
}

TEST(OpStream, ScanLengthsStayInRange) {
  const BootstrapDataset ds = MakeSequentialDataset(2048, 6);
  WorkloadSpec spec = WorkloadSpec::YcsbMix('e');
  OpStream stream(spec, &ds, 0, 1, 12);
  int scans = 0;
  for (const Op& op : stream.Take(5000)) {
    if (op.kind != OpKind::kScan) continue;
    ++scans;
    EXPECT_GE(op.scan_len, 1);
    EXPECT_LE(op.scan_len, spec.max_scan_len);
  }
  EXPECT_GT(scans, 4000);
}

TEST(OpStream, LatestMixReachesItsOwnInserts) {
  const BootstrapDataset ds = MakeSequentialDataset(2048, 6);
  OpStream stream(WorkloadSpec::YcsbMix('d'), &ds, 0, 1, 14);
  std::set<Key64> inserted;
  int reads_of_inserted = 0;
  for (const Op& op : stream.Take(20000)) {
    if (op.kind == OpKind::kInsert) {
      inserted.insert(op.key);
    } else if (op.kind == OpKind::kRead && inserted.count(op.key) > 0) {
      ++reads_of_inserted;
    }
  }
  EXPECT_GT(inserted.size(), 50u);
  // Latest skew: a solid share of reads target records inserted during
  // the run, even though they are a sliver of the key population.
  EXPECT_GT(reads_of_inserted, 1000);
}

// ---------------------------------------------------------------------------
// The paper's generators: Section 6.3's distributions (its parameters) and
// Section 6.1's dataset, lookup, range and update streams.
// ---------------------------------------------------------------------------

class DistributionTest : public ::testing::TestWithParam<Distribution> {};

TEST_P(DistributionTest, SamplesInUnitInterval) {
  DistributionSampler sampler(GetParam(), 11);
  for (int i = 0; i < 20000; ++i) {
    double v = sampler.Next();
    ASSERT_GE(v, 0.0) << DistributionName(GetParam());
    ASSERT_LE(v, 1.0) << DistributionName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, DistributionTest,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kNormal,
                                           Distribution::kGamma,
                                           Distribution::kZipf),
                         [](const auto& info) {
                           return DistributionName(info.param);
                         });

TEST(Distributions, NormalMeanAndSpread) {
  DistributionSampler sampler(Distribution::kNormal, 12);
  double sum = 0;
  int mid = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = sampler.Next();
    sum += v;
    if (v > 0.25 && v < 0.75) ++mid;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);  // mu = 0.5
  // sigma ~ 0.354: ~52% of mass within +-0.25 of the mean.
  EXPECT_GT(static_cast<double>(mid) / n, 0.4);
  EXPECT_LT(static_cast<double>(mid) / n, 0.65);
}

TEST(Distributions, GammaSkewsLow) {
  DistributionSampler sampler(Distribution::kGamma, 13);
  int low = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (sampler.Next() < 0.3) ++low;
  }
  // Gamma(3,3)/45: mean 9/45 = 0.2 -> most mass below 0.3.
  EXPECT_GT(static_cast<double>(low) / n, 0.6);
}

TEST(Distributions, ZipfIsHeavilySkewed) {
  DistributionSampler sampler(Distribution::kZipf, 14);
  int rank1 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    // Rank 1 maps to 0.0 exactly; rank 2 to ~6e-8.
    if (sampler.Next() < 3e-8) ++rank1;
  }
  // Zipf(2): P(rank 1) = 1/zeta(2) ~ 0.61.
  EXPECT_NEAR(static_cast<double>(rank1) / n, 0.61, 0.05);
}

TEST(Distributions, QueriesNeverHitTheSentinel) {
  // The 64-bit domain rounds to 2^64, one past the largest key, so a
  // sample clamped to 1.0 (about 8% of the Normal stream) must not turn
  // into the empty-slot sentinel.
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal,
                         Distribution::kGamma, Distribution::kZipf}) {
    for (const Key64 key : MakeDistributedQueries<Key64>(1 << 16, d, 5)) {
      ASSERT_NE(key, KeyTraits<Key64>::kMax) << DistributionName(d);
    }
  }
}

TEST(Distributions, ParseRoundTrips) {
  for (Distribution d : {Distribution::kUniform, Distribution::kNormal,
                         Distribution::kGamma, Distribution::kZipf}) {
    EXPECT_EQ(ParseDistribution(DistributionName(d)), d);
  }
}

using KeyTypes = ::testing::Types<Key64, Key32>;
template <typename K>
class WorkloadTypedTest : public ::testing::Test {};
TYPED_TEST_SUITE(WorkloadTypedTest, KeyTypes);

TYPED_TEST(WorkloadTypedTest, DatasetIsSortedAndUnique) {
  using K = TypeParam;
  auto data = GenerateDataset<K>(50000, 16);
  ASSERT_EQ(data.size(), 50000u);
  for (std::size_t i = 1; i < data.size(); ++i) {
    ASSERT_LT(data[i - 1].key, data[i].key);
  }
  for (const auto& kv : data) ASSERT_NE(kv.key, KeyTraits<K>::kMax);
}

TYPED_TEST(WorkloadTypedTest, LookupQueriesArePermutationOfKeys) {
  using K = TypeParam;
  auto data = GenerateDataset<K>(10000, 17);
  auto queries = MakeLookupQueries(data, 18);
  ASSERT_EQ(queries.size(), data.size());
  std::vector<K> sorted = queries;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(sorted[i], data[i].key);
  }
}

TYPED_TEST(WorkloadTypedTest, UpdateBatchRespectsFractionAndValidity) {
  using K = TypeParam;
  auto data = GenerateDataset<K>(20000, 19);
  auto batch = MakeUpdateBatch<K>(data, 1000, /*insert_fraction=*/0.6, 20);
  ASSERT_EQ(batch.size(), 1000u);
  std::size_t inserts = 0;
  std::set<K> delete_keys;
  for (const auto& update : batch) {
    auto it = std::lower_bound(
        data.begin(), data.end(), update.pair.key,
        [](const KeyValue<K>& kv, K k) { return kv.key < k; });
    const bool exists = it != data.end() && it->key == update.pair.key;
    if (update.kind == UpdateQuery<K>::Kind::kInsert) {
      ++inserts;
      EXPECT_FALSE(exists);  // inserts are fresh keys
    } else {
      EXPECT_TRUE(exists);  // deletes target existing keys
      EXPECT_TRUE(delete_keys.insert(update.pair.key).second)
          << "duplicate delete";
    }
  }
  EXPECT_EQ(inserts, 600u);
}

TYPED_TEST(WorkloadTypedTest, RangeQueriesStartAtExistingKeys) {
  using K = TypeParam;
  auto data = GenerateDataset<K>(5000, 21);
  auto rq = MakeRangeQueries(data, 200, 16, 22);
  for (const auto& query : rq) {
    auto it = std::lower_bound(
        data.begin(), data.end(), query.first_key,
        [](const KeyValue<K>& kv, K k) { return kv.key < k; });
    ASSERT_TRUE(it != data.end() && it->key == query.first_key);
    EXPECT_EQ(query.match_count, 16);
  }
}

TEST(Workload, Generate32BitHandlesCollisions) {
  // 2^20 keys from a 2^32 domain: collisions certain during generation,
  // output must still be unique.
  auto data = GenerateDataset<Key32>(1 << 20, 23);
  ASSERT_EQ(data.size(), std::size_t{1} << 20);
  for (std::size_t i = 1; i < data.size(); ++i) {
    ASSERT_LT(data[i - 1].key, data[i].key);
  }
}

// 64-bit FNV-1a over the fields fed to it, each little-endian byte by
// byte. Fields, not raw structs: RangeQuery and UpdateQuery carry padding.
class Fnv1a {
 public:
  template <typename T>
  void Add(T field) {
    const auto bits = static_cast<std::uint64_t>(field);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ ((bits >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

template <typename K>
std::uint64_t HashPairs(const std::vector<KeyValue<K>>& pairs) {
  Fnv1a hash;
  for (const KeyValue<K>& kv : pairs) {
    hash.Add(kv.key);
    hash.Add(kv.value);
  }
  return hash.value();
}

template <typename K>
std::uint64_t HashKeys(const std::vector<K>& keys) {
  Fnv1a hash;
  for (const K key : keys) hash.Add(key);
  return hash.value();
}

// Every figure bench builds its tree and queries with these generators, so
// the golden hashes pin the BENCH_paper/ baselines' inputs draw for draw.
TEST(PaperGenerators, GoldenDatasets) {
  // 2^20 draws from the 2^32 domain collide about 128 times, so the
  // 32-bit dataset also runs the top-up rounds.
  struct Golden {
    std::uint64_t seed, key64, key32;
  };
  const Golden goldens[] = {
      {1, 0x3eb713624591334aull, 0xf7c89f4d62a4c1c9ull},
      {42, 0xb3b738a8d9f94005ull, 0x155e023b3de7ff09ull}};
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.seed);
    EXPECT_EQ(HashPairs(GenerateDataset<Key64>(1 << 16, golden.seed)),
              golden.key64);
    EXPECT_EQ(HashPairs(GenerateDataset<Key32>(1 << 20, golden.seed)),
              golden.key32);
  }
}

TEST(PaperGenerators, GoldenQueryStreams) {
  // Normal, Gamma and Zipf samples go through libm (log, cos, pow), whose
  // last bits may differ between toolchains, so only the uniform stream
  // is pinned; Fig 12's report covers the other three.
  struct Golden {
    std::uint64_t seed, lookups, ranges, updates, uniform;
  };
  const Golden goldens[] = {
      {1, 0x0827d7c15bb9f2b0ull, 0x87c1b4344ce577acull, 0x3b96c3396e2ab730ull,
       0x87635dd1b699f2baull},
      {42, 0x1a3d1b87c90e6585ull, 0xe575ef23e2ac482aull, 0x98795c4ea8d38e82ull,
       0x7e8455453ee59dadull}};
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.seed);
    const auto data = GenerateDataset<Key64>(1 << 16, golden.seed);
    EXPECT_EQ(HashKeys(MakeLookupQueries(data, golden.seed)), golden.lookups);
    Fnv1a ranges;
    for (const auto& query : MakeRangeQueries(data, 4096, 16, golden.seed)) {
      ranges.Add(query.first_key);
      ranges.Add(query.match_count);
    }
    EXPECT_EQ(ranges.value(), golden.ranges);
    Fnv1a updates;
    for (const auto& update :
         MakeUpdateBatch(data, 4096, /*insert_fraction=*/0.5, golden.seed)) {
      updates.Add(update.kind);
      updates.Add(update.pair.key);
      updates.Add(update.pair.value);
    }
    EXPECT_EQ(updates.value(), golden.updates);
    EXPECT_EQ(HashKeys(MakeDistributedQueries<Key64>(
                  1 << 16, Distribution::kUniform, golden.seed)),
              golden.uniform);
  }
}

}  // namespace
}  // namespace hbtree::workload
