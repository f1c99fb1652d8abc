#ifndef HBTREE_WORKLOAD_PAPER_H_
#define HBTREE_WORKLOAD_PAPER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/types.h"

namespace hbtree::workload {

/// The paper's workloads. Section 6.1: keys and values are drawn uniformly
/// from [0, 2^n - 1], the tree is built from the sorted set, and the query
/// stream is the same keys after a Knuth shuffle. Keys are unique
/// (duplicates are rejected during generation) and the maximum key value is
/// reserved as the sentinel for empty slots. Section 6.3: query keys drawn
/// from skewed distributions.

/// Query-key distributions evaluated in the paper's skew experiment
/// (Section 6.3, Figure 12). Samples are drawn in [0, 1] and linearly
/// mapped onto the key domain by MakeDistributedQueries.
enum class Distribution {
  kUniform,
  /// Normal(mu = 0.5, sigma^2 = 0.125), clamped to [0, 1].
  kNormal,
  /// Gamma(k = 3, theta = 3), rescaled into [0, 1].
  kGamma,
  /// Zipf(alpha = 2) over a large rank domain, mapped into [0, 1].
  kZipf,
};

const char* DistributionName(Distribution d);

/// Parses "uniform" / "normal" / "gamma" / "zipf"; aborts on anything else.
Distribution ParseDistribution(const std::string& name);

/// Stateful sampler producing values in [0, 1] for a given distribution,
/// with the exact parameters used in the paper.
class DistributionSampler {
 public:
  DistributionSampler(Distribution distribution, std::uint64_t seed);

  /// Returns the next sample in [0, 1].
  double Next();

  Distribution distribution() const { return distribution_; }

 private:
  double NextNormal();
  double NextGamma(double shape, double scale);
  double NextZipf();

  Distribution distribution_;
  Rng rng_;
  // Box-Muller produces samples in pairs; the spare is cached here.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Generates a sorted dataset of `n` unique keys with random values.
template <typename K>
std::vector<KeyValue<K>> GenerateDataset(std::size_t n, std::uint64_t seed);

/// Returns the dataset's keys after a Knuth shuffle — the paper's point
/// lookup query stream (every query hits).
template <typename K>
std::vector<K> MakeLookupQueries(const std::vector<KeyValue<K>>& dataset,
                                 std::uint64_t seed);

/// Draws `count` query keys from the *key domain* according to a
/// distribution sample in [0, 1] mapped linearly onto [0, kMax), as in the
/// skew experiment (Section 6.3). Queries may miss. For 64-bit keys a
/// sample of exactly 1.0 maps to key 0.
template <typename K>
std::vector<K> MakeDistributedQueries(std::size_t count,
                                      Distribution distribution,
                                      std::uint64_t seed);

/// Builds range queries whose start keys exist in the dataset, each asking
/// for exactly `match_count` matches.
template <typename K>
std::vector<RangeQuery<K>> MakeRangeQueries(
    const std::vector<KeyValue<K>>& dataset, std::size_t count,
    int match_count, std::uint64_t seed);

/// Builds a batch of updates: `insert_fraction` inserts of fresh keys (not
/// in the dataset), the rest deletions of existing keys.
template <typename K>
std::vector<UpdateQuery<K>> MakeUpdateBatch(
    const std::vector<KeyValue<K>>& dataset, std::size_t count,
    double insert_fraction, std::uint64_t seed);

}  // namespace hbtree::workload

#endif  // HBTREE_WORKLOAD_PAPER_H_
