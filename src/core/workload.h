#ifndef HBTREE_CORE_WORKLOAD_H_
#define HBTREE_CORE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "core/distributions.h"
#include "core/random.h"
#include "core/types.h"

namespace hbtree {

/// Workload generation following Section 6.1: keys and values are drawn
/// uniformly from [0, 2^n - 1], the tree is built from the sorted set, and
/// the query stream is the same keys after a Knuth shuffle.
///
/// Keys are unique (duplicates are rejected during generation) and the
/// maximum key value is reserved as the sentinel for empty slots.

/// Generates `n` unique keys, sorted ascending, uniform over the key domain
/// excluding the all-ones sentinel.
template <typename K>
std::vector<K> GenerateSortedUniqueKeys(std::size_t n, std::uint64_t seed);

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
/// skew experiment (Section 6.3). Queries may miss.
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

}  // namespace hbtree

#endif  // HBTREE_CORE_WORKLOAD_H_
