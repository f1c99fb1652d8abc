#include "workload/dataset.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/macros.h"
#include "core/random.h"

namespace hbtree::workload {

const char* DatasetKindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kSequential:
      return "sequential";
    case DatasetKind::kUniform:
      return "uniform";
    case DatasetKind::kOsm:
      return "osm";
  }
  return "unknown";
}

Key64 BootstrapValue(Key64 key, std::uint64_t value_seed) {
  std::uint64_t state = key ^ value_seed;
  return SplitMix64(state);
}

namespace {

// Sorts, dedups, values, and wraps a raw key set. Keys equal to the tree's
// empty-slot sentinel are dropped.
BootstrapDataset FromKeys(DatasetKind kind, std::vector<Key64> keys,
                          std::uint64_t value_seed) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  while (!keys.empty() && keys.back() == KeyTraits<Key64>::kMax) {
    keys.pop_back();
  }
  BootstrapDataset out;
  out.kind = kind;
  out.pairs.reserve(keys.size());
  for (Key64 key : keys) {
    out.pairs.push_back({key, BootstrapValue(key, value_seed)});
  }
  return out;
}

}  // namespace

BootstrapDataset MakeSequentialDataset(std::size_t n, std::uint64_t value_seed,
                                       Key64 stride) {
  HBTREE_CHECK_MSG(stride >= 1, "sequential stride must be >= 1");
  std::vector<Key64> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<Key64>(i + 1) * stride);
  }
  BootstrapDataset out = FromKeys(DatasetKind::kSequential, std::move(keys),
                                  value_seed);
  out.append = true;
  out.append_base = static_cast<Key64>(n + 1) * stride;
  out.append_stride = stride;
  return out;
}

BootstrapDataset MakeUniformDataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0x6461746155ull);  // "dataU"
  std::vector<Key64> keys;
  keys.reserve(n + n / 8);
  while (keys.size() < n) {
    const std::size_t need = n - keys.size();
    for (std::size_t i = 0; i < need; ++i) keys.push_back(rng.Next());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  return FromKeys(DatasetKind::kUniform, std::move(keys), seed);
}

std::vector<Key64> SyntheticOsmKeys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0x6f736d6bull);  // "osmk"
  // ~256 members per cluster on average; cluster populations are skewed
  // (rank r gets weight ~ 1/(r+1)) like city sizes.
  const std::size_t clusters = std::max<std::size_t>(1, n / 256);
  std::vector<Key64> centers(clusters);
  for (auto& c : centers) {
    c = (Key64{1} << 32) + rng.NextBounded((Key64{1} << 63) - (Key64{1} << 32));
  }
  std::vector<Key64> keys;
  keys.reserve(n + n / 8);
  while (keys.size() < n) {
    // Skewed cluster pick: min of two uniforms biases toward low ranks.
    const std::size_t a = rng.NextBounded(clusters);
    const std::size_t b = rng.NextBounded(clusters);
    const Key64 center = centers[std::min(a, b)];
    // Members sit within ±2^20 of the center at mostly-small offsets.
    const Key64 spread = Key64{1} << (8 + rng.NextBounded(13));
    const Key64 offset = rng.NextBounded(2 * spread);
    keys.push_back(center - spread + offset);
    if (keys.size() == keys.capacity()) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  while (keys.size() < n) keys.push_back(rng.Next());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  keys.resize(std::min(keys.size(), n));
  return keys;
}

Status LoadKeyFile(const std::string& path, std::vector<Key64>* keys) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open key file: " + path);
  }
  char line[256];
  std::size_t lineno = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++lineno;
    char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '\0' || *p == '\n' || *p == '\r' || *p == '#') continue;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
    if (end == p || (*end != '\0' && *end != '\n' && *end != '\r')) {
      std::fclose(f);
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": expected one decimal uint64 per line");
    }
    keys->push_back(static_cast<Key64>(v));
  }
  std::fclose(f);
  return Status::Ok();
}

BootstrapDataset MakeOsmDataset(std::size_t n, std::uint64_t seed,
                                const std::string& path) {
  std::vector<Key64> keys;
  if (!path.empty()) {
    std::vector<Key64> loaded;
    if (LoadKeyFile(path, &loaded).ok()) {
      keys = std::move(loaded);
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      if (keys.size() > n) {
        // Deterministic subsample: keep every (size/n)-th key so the
        // clustered shape survives.
        std::vector<Key64> sampled;
        sampled.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          sampled.push_back(keys[i * keys.size() / n]);
        }
        keys = std::move(sampled);
      }
    }
  }
  if (keys.size() < n) {
    std::vector<Key64> extra = SyntheticOsmKeys(n - keys.size(), seed);
    keys.insert(keys.end(), extra.begin(), extra.end());
  }
  return FromKeys(DatasetKind::kOsm, std::move(keys), seed);
}

BootstrapDataset MakeDataset(DatasetKind kind, std::size_t n,
                             std::uint64_t seed, const std::string& osm_path) {
  switch (kind) {
    case DatasetKind::kSequential:
      return MakeSequentialDataset(n, seed);
    case DatasetKind::kUniform:
      return MakeUniformDataset(n, seed);
    case DatasetKind::kOsm:
      return MakeOsmDataset(n, seed, osm_path);
  }
  return MakeSequentialDataset(n, seed);
}

}  // namespace hbtree::workload
