#include "obs/heat.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_writer.h"

namespace hbtree::obs {

KeyspaceHeat MergeSketches(const std::vector<KeyRangeSketch::Snapshot>& shards,
                           const MergeOptions& options) {
  KeyspaceHeat heat;
  std::vector<HeatRange> ranges;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const KeyRangeSketch::Snapshot& snap = shards[s];
    heat.bins += snap.fanout;
    heat.shard_totals.push_back(snap.total);
    heat.total += snap.total;
    for (int b = 0; b < snap.fanout; ++b) {
      if (snap.bins[static_cast<std::size_t>(b)] == 0) continue;
      HeatRange range;
      const auto [lo, hi] = snap.BinRange(b);
      range.lo = lo;
      range.hi = hi;
      range.shard = static_cast<int>(s);
      range.count = snap.bins[static_cast<std::size_t>(b)];
      range.by_tenant.assign(
          snap.tenant_bins.begin() +
              static_cast<std::ptrdiff_t>(b) *
                  static_cast<std::ptrdiff_t>(snap.tenants),
          snap.tenant_bins.begin() +
              static_cast<std::ptrdiff_t>(b + 1) *
                  static_cast<std::ptrdiff_t>(snap.tenants));
      ranges.push_back(std::move(range));
    }
  }
  if (heat.bins > 0) {
    heat.hot_threshold_share = options.hot_factor / heat.bins;
  }
  std::stable_sort(ranges.begin(), ranges.end(),
                   [](const HeatRange& a, const HeatRange& b) {
                     return a.count > b.count;
                   });
  const std::size_t keep = std::min<std::size_t>(
      ranges.size(), options.top_k < 0 ? 0 : options.top_k);
  ranges.resize(keep);
  for (HeatRange& range : ranges) {
    range.share = heat.total == 0
                      ? 0.0
                      : static_cast<double>(range.count) /
                            static_cast<double>(heat.total);
    range.hot = heat.hot_threshold_share > 0 &&
                range.share >= heat.hot_threshold_share;
  }
  heat.top = std::move(ranges);
  return heat;
}

void LevelHeatTracer::Collect(std::vector<LevelTraffic>* out) const {
  for (int i = 0; i < kCells; ++i) {
    const LevelTraffic& cell = cells_[i];
    if (cell.touches == 0 && cell.bytes == 0) continue;
    LevelTraffic entry = cell;
    if (i == kCells - 1) {
      entry.level = 0;
      entry.node_class = kOtherClass;
    } else {
      entry.level = i / kClasses;
      entry.node_class = i % kClasses;
    }
    out->push_back(entry);
  }
}

std::uint64_t LevelHeatTracer::total_bytes() const {
  std::uint64_t total = 0;
  for (const LevelTraffic& cell : cells_) total += cell.bytes;
  return total;
}

PoolTemperature ClassifySegments(const std::vector<std::uint64_t>& touches) {
  PoolTemperature result;
  result.segments = touches.size();
  for (const std::uint64_t t : touches) {
    if (t >= kHotSegmentTouches) {
      ++result.hot;
    } else if (t > 0) {
      ++result.warm;
    } else {
      ++result.cold;
    }
  }
  if (result.segments > 0) {
    result.cold_fraction = static_cast<double>(result.cold) /
                           static_cast<double>(result.segments);
  }
  return result;
}

std::string LevelCellName(int level, int node_class) {
  static const char* kClassNames[] = {"inner", "last_inner", "big_leaf"};
  if (node_class < 0 || node_class >= LevelHeatTracer::kClasses) {
    return "other";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "L%d.%s", level,
                kClassNames[node_class]);
  return buffer;
}

void AppendHeatJson(JsonWriter& writer, const HeatSection& heat) {
  writer.BeginObject();

  writer.Key("keyspace");
  writer.BeginObject();
  writer.Key("total");
  writer.Uint(heat.keyspace.total);
  writer.Key("bins");
  writer.Int(heat.keyspace.bins);
  writer.Key("hot_threshold_share");
  writer.Number(heat.keyspace.hot_threshold_share);
  writer.Key("shard_totals");
  writer.BeginArray();
  for (std::uint64_t total : heat.keyspace.shard_totals) writer.Uint(total);
  writer.EndArray();
  writer.Key("ranges");
  writer.BeginArray();
  for (const HeatRange& range : heat.keyspace.top) {
    writer.BeginObject();
    writer.Key("lo");
    writer.Uint(range.lo);
    writer.Key("hi");
    writer.Uint(range.hi);
    writer.Key("shard");
    writer.Int(range.shard);
    writer.Key("count");
    writer.Uint(range.count);
    writer.Key("share");
    writer.Number(range.share);
    writer.Key("hot");
    writer.Bool(range.hot);
    writer.Key("tenants");
    writer.BeginObject();
    for (std::size_t t = 0; t < range.by_tenant.size(); ++t) {
      if (range.by_tenant[t] == 0) continue;
      writer.Key(t < heat.tenant_names.size() ? heat.tenant_names[t]
                                              : "tenant" + std::to_string(t));
      writer.Uint(range.by_tenant[t]);
    }
    writer.EndObject();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();

  writer.Key("levels");
  writer.BeginObject();
  for (const StageHeat& stage : heat.stages) {
    writer.Key(stage.stage);
    writer.BeginObject();
    for (const LevelTraffic& cell : stage.levels) {
      writer.Key(LevelCellName(cell.level, cell.node_class));
      writer.BeginObject();
      writer.Key("touches");
      writer.Uint(cell.touches);
      writer.Key("bytes");
      writer.Uint(cell.bytes);
      writer.Key("l1_bytes");
      writer.Uint(cell.hit_bytes[0]);
      writer.Key("l2_bytes");
      writer.Uint(cell.hit_bytes[1]);
      writer.Key("l3_bytes");
      writer.Uint(cell.hit_bytes[2]);
      writer.Key("dram_bytes");
      writer.Uint(cell.hit_bytes[3]);
      writer.EndObject();
    }
    writer.EndObject();
  }
  writer.EndObject();

  writer.Key("kernel");
  writer.BeginObject();
  writer.Key("launches");
  writer.Uint(heat.kernel.launches);
  writer.Key("dram_bytes");
  writer.Uint(heat.kernel.dram_bytes);
  writer.Key("l2_bytes");
  writer.Uint(heat.kernel.l2_bytes);
  writer.Key("node_loads");
  writer.BeginArray();
  for (std::uint64_t v : heat.kernel.node_loads) writer.Uint(v);
  writer.EndArray();
  writer.Key("node_queries");
  writer.BeginArray();
  for (std::uint64_t v : heat.kernel.node_queries) writer.Uint(v);
  writer.EndArray();
  writer.EndObject();

  writer.Key("pools");
  writer.BeginObject();
  for (const auto& [name, pool] : heat.pools) {
    writer.Key(name);
    writer.BeginObject();
    writer.Key("segments");
    writer.Uint(pool.segments);
    writer.Key("hot");
    writer.Uint(pool.hot);
    writer.Key("warm");
    writer.Uint(pool.warm);
    writer.Key("cold");
    writer.Uint(pool.cold);
    writer.Key("cold_fraction");
    writer.Number(pool.cold_fraction);
    writer.EndObject();
  }
  writer.EndObject();

  writer.EndObject();
}

}  // namespace hbtree::obs
