#ifndef HBTREE_WORKLOAD_DATASET_H_
#define HBTREE_WORKLOAD_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace hbtree::workload {

enum class DatasetKind {
  /// keys = (i + 1) * stride: maximal headroom, fresh inserts append past
  /// the bootstrap set (YCSB's ordered-insert regime, needed for D/E).
  kSequential,
  /// Uniform random 64-bit keys: no append headroom, fresh inserts
  /// scatter into the gaps.
  kUniform,
  /// OSM-style clustered real keys (loaded from data/osm_mini_keys.txt
  /// when present, synthesized with the same shape otherwise).
  kOsm,
};

const char* DatasetKindName(DatasetKind kind);

/// The bootstrap record set a workload runs against, sorted by key and
/// duplicate-free, plus the policy for minting fresh insert keys.
struct BootstrapDataset {
  DatasetKind kind = DatasetKind::kSequential;
  std::vector<KeyValue<Key64>> pairs;

  /// When true, fresh key i (0-based, across all clients) is
  /// append_base + i * append_stride — strictly above every bootstrap
  /// key, so kLatest skew really does hit the newest records. When
  /// false, fresh keys are drawn uniformly and rejected against the
  /// bootstrap set (scatter policy).
  bool append = false;
  Key64 append_base = 0;
  Key64 append_stride = 0;
};

/// value = SplitMix64-style mix of (key ^ value_seed); lets any reader
/// recompute the expected bootstrap value from the key alone.
Key64 BootstrapValue(Key64 key, std::uint64_t value_seed);

BootstrapDataset MakeSequentialDataset(std::size_t n, std::uint64_t value_seed,
                                       Key64 stride = 8);
BootstrapDataset MakeUniformDataset(std::size_t n, std::uint64_t seed);

/// OSM cell ids cluster around populated places: keys bunch into dense
/// clusters with wide empty gaps. The synthetic generator reproduces that
/// shape — cluster centers uniform over [2^32, 2^63), members packed
/// around each center at small strides.
std::vector<Key64> SyntheticOsmKeys(std::size_t n, std::uint64_t seed);

/// Reads one decimal uint64 key per line; '#' comments and blank lines
/// are skipped. Keys may be unsorted / duplicated — callers dedup.
Status LoadKeyFile(const std::string& path, std::vector<Key64>* keys);

/// Builds the OSM bootstrap set: loads `path` when non-empty and
/// readable, otherwise synthesizes. Subsamples or tops up (with synthetic
/// keys) to exactly n records, then sorts, dedups, and values them.
BootstrapDataset MakeOsmDataset(std::size_t n, std::uint64_t seed,
                                const std::string& path);

BootstrapDataset MakeDataset(DatasetKind kind, std::size_t n,
                             std::uint64_t seed,
                             const std::string& osm_path = std::string());

}  // namespace hbtree::workload

#endif  // HBTREE_WORKLOAD_DATASET_H_
