#ifndef HBTREE_SIM_CACHE_SIM_H_
#define HBTREE_SIM_CACHE_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hbtree::sim {

/// One set-associative, LRU-replacement cache level.
///
/// The simulator is trace-driven: tree traversal feeds it the cache-line
/// address of every logical access, and the hierarchy reports which level
/// served it. This is what makes the cache-sensitivity experiments
/// (tree size vs. LLC capacity, skewed query streams — Figures 8, 12, 16)
/// reproducible without the paper's hardware.
class CacheLevel {
 public:
  struct Config {
    std::string name;
    std::uint64_t size_bytes;
    int associativity;
    std::uint64_t line_size = 64;
  };

  explicit CacheLevel(const Config& config);

  /// Accesses `line_addr` (already divided by line size). Returns true on
  /// hit; on miss the line is installed, evicting the LRU way. Inline —
  /// the trace-driven simulators call this for every modelled memory
  /// access, so it is one of the hottest functions in the whole host
  /// process; the MRU short-circuit covers the common repeated-line case
  /// without any way shifting.
  bool Access(std::uint64_t line_addr) {
    const std::uint64_t set = line_addr & (num_sets_ - 1);
    const std::uint64_t tag = line_addr + 1;  // +1 so 0 means "empty way"
    std::uint64_t* ways = &tags_[set * ways_];
    if (ways[0] == tag) {  // already MRU: nothing to reorder
      ++hits_;
      return true;
    }
    for (int i = 1; i < ways_; ++i) {
      if (ways[i] == tag) {
        // Move to front (MRU position).
        for (int j = i; j > 0; --j) ways[j] = ways[j - 1];
        ways[0] = tag;
        ++hits_;
        return true;
      }
    }
    // Miss: install as MRU, evicting the LRU way.
    for (int j = ways_ - 1; j > 0; --j) ways[j] = ways[j - 1];
    ways[0] = tag;
    ++misses_;
    return false;
  }

  void Flush();

  const Config& config() const { return config_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void ResetStats() { hits_ = misses_ = 0; }

 private:
  Config config_;
  std::uint64_t num_sets_;
  int ways_;
  // tags_[set * ways_ + i] holds the i-th most recently used tag of `set`;
  // a zero entry is empty (tags are stored +1 to make zero invalid).
  std::vector<std::uint64_t> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Which level of the hierarchy served an access.
enum class HitLevel { kL1 = 0, kL2 = 1, kL3 = 2, kMemory = 3 };

/// An inclusive multi-level cache hierarchy (L1 → L2 → LLC → memory).
class CacheHierarchy {
 public:
  explicit CacheHierarchy(std::vector<CacheLevel::Config> levels);

  /// Simulates one access to `addr`; returns the serving level. Accesses
  /// spanning a line boundary count as one access to the first line (tree
  /// code issues per-line accesses, so this does not occur in practice).
  HitLevel Access(const void* addr) {
    return AccessLine(reinterpret_cast<std::uintptr_t>(addr) / line_size_);
  }
  HitLevel AccessLine(std::uint64_t line_addr) {
    ++accesses_;
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].Access(line_addr)) return static_cast<HitLevel>(i);
      // Miss: fall through and install in the next level too (the loop
      // continues, so every level on the miss path installs the line —
      // modelling an inclusive hierarchy).
    }
    ++memory_accesses_;
    return HitLevel::kMemory;
  }

  void Flush();
  void ResetStats();

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const CacheLevel& level(int i) const { return levels_[i]; }
  std::uint64_t accesses() const { return accesses_; }
  /// Accesses that missed every level and went to DRAM.
  std::uint64_t memory_accesses() const { return memory_accesses_; }

 private:
  std::vector<CacheLevel> levels_;
  std::uint64_t line_size_;
  std::uint64_t accesses_ = 0;
  std::uint64_t memory_accesses_ = 0;
};

}  // namespace hbtree::sim

#endif  // HBTREE_SIM_CACHE_SIM_H_
