#include "obs/span_aggregator.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace hbtree::obs {

namespace {

/// Canonical pipeline order for emitted waterfalls.
constexpr std::array<const char*, 8> kStageOrder = {
    "admission_wait", "fill_window", "pre_descend", "h2d",
    "kernel",         "d2h",         "merge",       "commit",
};

int StageRank(const std::string& stage) {
  for (std::size_t i = 0; i < kStageOrder.size(); ++i) {
    if (stage == kStageOrder[i]) return static_cast<int>(i);
  }
  return static_cast<int>(kStageOrder.size());
}

std::vector<std::pair<std::string, StageStats>> Ordered(
    const std::map<std::string, StageStats>& stages, double total_us) {
  std::vector<std::pair<std::string, StageStats>> out(stages.begin(),
                                                      stages.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return StageRank(a.first) < StageRank(b.first);
  });
  for (auto& [name, s] : out) {
    s.share = total_us > 0 ? s.total_us / total_us : 0.0;
  }
  return out;
}

double TotalUs(const std::map<std::string, StageStats>& stages) {
  double total = 0;
  for (const auto& [name, s] : stages) total += s.total_us;
  return total;
}

/// "serve.shard3.read1" → "shard3"; threads outside the per-shard naming
/// scheme (clients, for one) contribute to the aggregate only.
std::string ShardGroupFromThreadName(const std::string& thread_name) {
  const char* prefix = "serve.shard";
  if (thread_name.rfind(prefix, 0) != 0) return {};
  const std::size_t start = std::strlen(prefix) - std::strlen("shard");
  const std::size_t dot = thread_name.find('.', std::strlen(prefix));
  if (dot == std::string::npos) return {};
  return thread_name.substr(start, dot - start);
}

}  // namespace

const char* SpanAggregator::StageForSpan(const char* span_name) {
  struct Mapping {
    const char* span;
    const char* stage;
  };
  static constexpr Mapping kMap[] = {
      {"queue.wait", "admission_wait"}, {"bucket.fill", "fill_window"},
      {"update.fill", "fill_window"},   {"bucket.pre_descend", "pre_descend"},
      {"bucket.h2d", "h2d"},            {"bucket.kernel", "kernel"},
      {"bucket.d2h", "d2h"},            {"bucket.cpu_leaf", "merge"},
      {"update.commit", "commit"},
  };
  for (const Mapping& m : kMap) {
    if (std::strcmp(span_name, m.span) == 0) return m.stage;
  }
  return nullptr;
}

void SpanAggregator::Add(const TraceEvent& event, const std::string& group) {
  if (event.ph != 'X') return;
  const char* stage = StageForSpan(event.name);
  if (stage == nullptr) return;
  auto fold = [&](StageMap& into) {
    StageStats& s = into[stage];
    s.count += 1;
    s.total_us += event.dur_us;
    s.max_us = std::max(s.max_us, event.dur_us);
  };
  fold(aggregate_);
  if (!group.empty()) fold(groups_[group]);
}

StageWaterfall SpanAggregator::Waterfall() const {
  StageWaterfall w;
  w.total_us = TotalUs(aggregate_);
  w.stages = Ordered(aggregate_, w.total_us);
  for (const auto& [name, stages] : groups_) {
    StageGroup g;
    g.name = name;
    g.stages = Ordered(stages, TotalUs(stages));
    w.groups.push_back(std::move(g));
  }
  return w;
}

StageWaterfall SpanAggregator::FromSession() {
  std::map<int, std::string> wall_groups;
  for (const auto& [tid, name] : TraceSession::ThreadNames()) {
    wall_groups[tid] = ShardGroupFromThreadName(name);
  }
  std::map<int, std::string> slot_prefixes;
  for (const auto& [base, prefix] : TraceSession::ModelTrackPrefixes()) {
    slot_prefixes[base] = prefix;
  }
  SpanAggregator agg;
  for (const TraceEvent& e : TraceSession::Snapshot()) {
    std::string group;
    if (e.pid == TraceSession::kModelPid) {
      const int base = e.tid - e.tid % TraceSession::kModelTrackStride;
      const auto it = slot_prefixes.find(base);
      if (it != slot_prefixes.end()) {
        group = it->second;
      } else if (base != 0) {
        group = "slot" + std::to_string(base / TraceSession::kModelTrackStride);
      }
    } else {
      const auto it = wall_groups.find(e.tid);
      if (it != wall_groups.end()) group = it->second;
    }
    agg.Add(e, group);
  }
  return agg.Waterfall();
}

}  // namespace hbtree::obs
