#include "sim/cache_sim.h"

#include <bit>

#include "core/macros.h"

namespace hbtree::sim {

CacheLevel::CacheLevel(const Config& config) : config_(config) {
  HBTREE_CHECK(config.associativity > 0);
  HBTREE_CHECK(config.line_size > 0);
  num_sets_ = config.size_bytes / (config.line_size * config.associativity);
  HBTREE_CHECK_MSG(num_sets_ > 0, "cache '%s' too small", config.name.c_str());
  // Power-of-two set counts allow masking instead of modulo.
  HBTREE_CHECK_MSG(std::popcount(num_sets_) == 1,
                   "cache '%s': set count %llu not a power of two",
                   config.name.c_str(),
                   static_cast<unsigned long long>(num_sets_));
  ways_ = config.associativity;
  tags_.assign(num_sets_ * ways_, 0);
}

void CacheLevel::Flush() { tags_.assign(tags_.size(), 0); }

CacheHierarchy::CacheHierarchy(std::vector<CacheLevel::Config> levels) {
  HBTREE_CHECK(!levels.empty());
  line_size_ = levels[0].line_size;
  for (const auto& config : levels) {
    HBTREE_CHECK(config.line_size == line_size_);
    levels_.emplace_back(config);
  }
}

void CacheHierarchy::Flush() {
  for (auto& level : levels_) level.Flush();
}

void CacheHierarchy::ResetStats() {
  accesses_ = 0;
  memory_accesses_ = 0;
  for (auto& level : levels_) level.ResetStats();
}

}  // namespace hbtree::sim
