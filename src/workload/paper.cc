#include "workload/paper.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/macros.h"

namespace hbtree::workload {

namespace {

// Parameters from Section 6.3.
constexpr double kNormalMu = 0.5;
constexpr double kNormalSigma = 0.35355339059327373;  // sqrt(0.125)
constexpr double kGammaShape = 3.0;
constexpr double kGammaScale = 3.0;
// Gamma(3, 3) mass is overwhelmingly below ~45 (P[X > 45] < 1e-5); samples
// are rescaled by this bound and clamped so the mapping into [0, 1] is
// stable and heavy skew toward small values is preserved.
constexpr double kGammaUpperBound = 45.0;
constexpr double kZipfAlpha = 2.0;
// Number of distinct ranks used for the Zipf sampler. Large enough that the
// rank grid is much finer than any tree's key spacing at the sizes we test.
constexpr std::uint64_t kZipfRanks = 1ull << 24;

// Generates `n` unique keys, sorted ascending, uniform over the key domain
// excluding the all-ones sentinel.
template <typename K>
std::vector<K> GenerateSortedUniqueKeys(std::size_t n, std::uint64_t seed) {
  // The all-ones value is reserved as the empty-slot sentinel (Section 4.1),
  // so keys are drawn from [0, kMax - 1].
  const K bound = KeyTraits<K>::kMax;  // exclusive bound == kMax
  Rng rng(seed);
  std::vector<K> keys;
  keys.reserve(n + n / 16 + 16);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<K>(rng.NextBounded(bound)));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  // Top up until we have n unique keys. For 64-bit keys collisions are
  // vanishingly rare; for 32-bit keys at large n a few rounds suffice.
  while (keys.size() < n) {
    std::size_t missing = n - keys.size();
    std::vector<K> extra;
    extra.reserve(missing + missing / 8 + 8);
    for (std::size_t i = 0; i < missing + missing / 8 + 8; ++i) {
      extra.push_back(static_cast<K>(rng.NextBounded(bound)));
    }
    std::sort(extra.begin(), extra.end());
    extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
    std::vector<K> merged;
    merged.reserve(keys.size() + extra.size());
    std::set_union(keys.begin(), keys.end(), extra.begin(), extra.end(),
                   std::back_inserter(merged));
    keys = std::move(merged);
  }
  keys.resize(n);
  return keys;
}

}  // namespace

const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kNormal:
      return "normal";
    case Distribution::kGamma:
      return "gamma";
    case Distribution::kZipf:
      return "zipf";
  }
  return "unknown";
}

Distribution ParseDistribution(const std::string& name) {
  if (name == "uniform") return Distribution::kUniform;
  if (name == "normal") return Distribution::kNormal;
  if (name == "gamma") return Distribution::kGamma;
  if (name == "zipf") return Distribution::kZipf;
  HBTREE_CHECK_MSG(false, "unknown distribution '%s'", name.c_str());
  return Distribution::kUniform;
}

DistributionSampler::DistributionSampler(Distribution distribution,
                                         std::uint64_t seed)
    : distribution_(distribution), rng_(seed) {}

double DistributionSampler::Next() {
  switch (distribution_) {
    case Distribution::kUniform:
      return rng_.NextDouble();
    case Distribution::kNormal: {
      double v = kNormalMu + kNormalSigma * NextNormal();
      if (v < 0.0) v = 0.0;
      if (v > 1.0) v = 1.0;
      return v;
    }
    case Distribution::kGamma: {
      double v = NextGamma(kGammaShape, kGammaScale) / kGammaUpperBound;
      if (v > 1.0) v = 1.0;
      return v;
    }
    case Distribution::kZipf:
      return NextZipf();
  }
  return 0.0;
}

double DistributionSampler::NextNormal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller transform.
  double u1 = rng_.NextDouble();
  double u2 = rng_.NextDouble();
  while (u1 <= 1e-300) u1 = rng_.NextDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double DistributionSampler::NextGamma(double shape, double scale) {
  // Marsaglia & Tsang (2000), "A simple method for generating gamma
  // variables". Valid for shape >= 1, which holds for the paper's k = 3.
  HBTREE_DCHECK(shape >= 1.0);
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = NextNormal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = rng_.NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return scale * d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

double DistributionSampler::NextZipf() {
  // Rejection-inversion sampling (Hörmann & Derflinger 1996) for
  // Zipf(alpha) over ranks [1, kZipfRanks]. For alpha = 2 the helper
  // H(x) = -1/x has the closed-form inverse used below.
  const double alpha = kZipfAlpha;
  auto h = [alpha](double x) {
    return std::pow(x, 1.0 - alpha) / (1.0 - alpha);
  };
  auto h_inv = [alpha](double y) {
    return std::pow((1.0 - alpha) * y, 1.0 / (1.0 - alpha));
  };
  static const double kHx0 = h(0.5) - 1.0;
  const double h_max = h(kZipfRanks + 0.5);
  for (;;) {
    double u = kHx0 + rng_.NextDouble() * (h_max - kHx0);
    double x = h_inv(u);
    std::uint64_t rank = static_cast<std::uint64_t>(x + 0.5);
    if (rank < 1) rank = 1;
    if (rank > kZipfRanks) rank = kZipfRanks;
    double rank_d = static_cast<double>(rank);
    if (u >= h(rank_d + 0.5) - std::pow(rank_d, -alpha)) {
      // Map rank r (1 = most popular) onto [0, 1].
      return (rank_d - 1.0) / static_cast<double>(kZipfRanks - 1);
    }
  }
}

template <typename K>
std::vector<KeyValue<K>> GenerateDataset(std::size_t n, std::uint64_t seed) {
  std::vector<K> keys = GenerateSortedUniqueKeys<K>(n, seed);
  Rng rng(seed ^ 0xabcdef0123456789ull);
  std::vector<KeyValue<K>> dataset(n);
  for (std::size_t i = 0; i < n; ++i) {
    dataset[i].key = keys[i];
    dataset[i].value = static_cast<K>(rng.Next());
  }
  return dataset;
}

template <typename K>
std::vector<K> MakeLookupQueries(const std::vector<KeyValue<K>>& dataset,
                                 std::uint64_t seed) {
  std::vector<K> queries(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    queries[i] = dataset[i].key;
  }
  Rng rng(seed ^ 0x517cc1b727220a95ull);
  KnuthShuffle(queries, rng);
  return queries;
}

template <typename K>
std::vector<K> MakeDistributedQueries(std::size_t count,
                                      Distribution distribution,
                                      std::uint64_t seed) {
  DistributionSampler sampler(distribution, seed);
  std::vector<K> queries(count);
  const double domain = static_cast<double>(KeyTraits<K>::kMax) - 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    // The 64-bit domain rounds to 2^64, so a sample of 1.0 lands past the
    // largest key, where the cast is undefined. It wraps to key 0, the key
    // the checked-in Fig 12 reports were drawn with.
    const double key = sampler.Next() * domain;
    queries[i] = key < static_cast<double>(KeyTraits<K>::kMax)
                     ? static_cast<K>(key)
                     : K{0};
  }
  return queries;
}

template <typename K>
std::vector<RangeQuery<K>> MakeRangeQueries(
    const std::vector<KeyValue<K>>& dataset, std::size_t count,
    int match_count, std::uint64_t seed) {
  HBTREE_CHECK(dataset.size() >= static_cast<std::size_t>(match_count));
  Rng rng(seed ^ 0x2545f4914f6cdd1dull);
  const std::size_t max_start = dataset.size() - match_count;
  std::vector<RangeQuery<K>> queries(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t start = rng.NextBounded(max_start + 1);
    queries[i] = RangeQuery<K>{dataset[start].key, match_count};
  }
  return queries;
}

template <typename K>
std::vector<UpdateQuery<K>> MakeUpdateBatch(
    const std::vector<KeyValue<K>>& dataset, std::size_t count,
    double insert_fraction, std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const std::size_t insert_count =
      static_cast<std::size_t>(count * insert_fraction);
  std::vector<UpdateQuery<K>> batch;
  batch.reserve(count);

  // Inserts: fresh keys absent from the dataset.
  auto key_exists = [&dataset](K key) {
    auto it = std::lower_bound(
        dataset.begin(), dataset.end(), key,
        [](const KeyValue<K>& kv, K k) { return kv.key < k; });
    return it != dataset.end() && it->key == key;
  };
  for (std::size_t i = 0; i < insert_count; ++i) {
    K key;
    do {
      key = static_cast<K>(rng.NextBounded(KeyTraits<K>::kMax));
    } while (key_exists(key));
    batch.push_back(UpdateQuery<K>{UpdateQuery<K>::Kind::kInsert,
                                   {key, static_cast<K>(rng.Next())}});
  }

  // Deletes: distinct existing keys.
  std::size_t delete_count = count - insert_count;
  HBTREE_CHECK(delete_count <= dataset.size());
  // Floyd's algorithm for sampling without replacement would need a set;
  // with delete_count << n, rejection on a bitmap of picked indices is
  // simpler and fast enough for workload generation.
  std::vector<bool> picked(dataset.size(), false);
  for (std::size_t i = 0; i < delete_count; ++i) {
    std::size_t idx;
    do {
      idx = rng.NextBounded(dataset.size());
    } while (picked[idx]);
    picked[idx] = true;
    batch.push_back(
        UpdateQuery<K>{UpdateQuery<K>::Kind::kDelete, dataset[idx]});
  }
  KnuthShuffle(batch, rng);
  return batch;
}

// Explicit instantiations for the two key widths the paper evaluates.
#define HBTREE_INSTANTIATE(K)                                                \
  template std::vector<KeyValue<K>> GenerateDataset<K>(std::size_t,          \
                                                       std::uint64_t);       \
  template std::vector<K> MakeLookupQueries<K>(                              \
      const std::vector<KeyValue<K>>&, std::uint64_t);                       \
  template std::vector<K> MakeDistributedQueries<K>(                         \
      std::size_t, Distribution, std::uint64_t);                             \
  template std::vector<RangeQuery<K>> MakeRangeQueries<K>(                   \
      const std::vector<KeyValue<K>>&, std::size_t, int, std::uint64_t);     \
  template std::vector<UpdateQuery<K>> MakeUpdateBatch<K>(                   \
      const std::vector<KeyValue<K>>&, std::size_t, double, std::uint64_t);

HBTREE_INSTANTIATE(Key64)
HBTREE_INSTANTIATE(Key32)
#undef HBTREE_INSTANTIATE

}  // namespace hbtree::workload
