#include "bench_support/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/json_writer.h"
#include "obs/trace.h"

namespace hbtree::bench {

BenchReport::Row& BenchReport::Row::Num(const std::string& column,
                                        double value, int precision) {
  Cell cell;
  cell.numeric = true;
  cell.number = value;
  cell.precision = precision;
  cells_.emplace_back(column, std::move(cell));
  return *this;
}

BenchReport::Row& BenchReport::Row::Text(const std::string& column,
                                         const std::string& value) {
  Cell cell;
  cell.text = value;
  cells_.emplace_back(column, std::move(cell));
  return *this;
}

void BenchReport::Meta(const std::string& key, const std::string& value) {
  Cell cell;
  cell.text = value;
  meta_.emplace_back(key, std::move(cell));
}

void BenchReport::MetaNum(const std::string& key, double value) {
  Cell cell;
  cell.numeric = true;
  cell.number = value;
  meta_.emplace_back(key, std::move(cell));
}

BenchReport::Row& BenchReport::AddRow() {
  rows_.emplace_back();
  return rows_.back();
}

BenchReport::Row& BenchReport::AddServeStatsRow(
    Row& row, const serve::ServeStats& stats) {
  row.Num("shards", stats.num_shards, 0)
      .Num("read_workers", stats.num_read_workers, 0)
      .Num("reads_per_s", stats.reads_per_second, 0)
      .Num("updates_per_s", stats.updates_per_second, 0)
      .Num("read_p50_us", stats.read_latency.p50_us, 1)
      .Num("read_p99_us", stats.read_latency.p99_us, 1)
      .Num("queue_wait_p99_us", stats.queue_wait.p99_us, 1)
      .Num("modelled_ops_per_s", stats.modelled_ops_per_second, 0)
      .Num("sync_us", stats.sim_sync_us, 0)
      .Num("delta_syncs", static_cast<double>(stats.delta_syncs), 0)
      .Num("full_syncs", static_cast<double>(stats.full_syncs), 0)
      .Num("retries",
           static_cast<double>(stats.transfer_retries + stats.kernel_retries +
                               stats.sync_retries),
           0)
      .Num("device_faults", static_cast<double>(stats.device_faults), 0)
      .Num("breaker_opens", static_cast<double>(stats.breaker_opens), 0)
      .Num("breaker_closes", static_cast<double>(stats.breaker_closes), 0)
      .Num("cpu_fallback_buckets",
           static_cast<double>(stats.cpu_fallback_buckets), 0)
      .Num("shed", static_cast<double>(stats.shed_reads + stats.shed_updates),
           0);
  // Worst burn rate across the tracked SLOs (0 with none observed): >1
  // means some objective spent its error budget faster than tolerated
  // during this run.
  double max_burn = 0;
  for (const obs::SloStatus& slo : stats.slos) {
    max_burn = std::max(max_burn, slo.burn);
  }
  row.Num("slo_max_burn", max_burn, 2);
  return row;
}

BenchReport::Row& BenchReport::AddTenantStatsRow(
    Row& row, int tenant, const serve::TenantServeStats& stats,
    double wall_seconds) {
  row.Num("tenant", tenant, 0)
      .Text("name", stats.name)
      .Text("priority", serve::PriorityName(stats.priority))
      .Num("weight", stats.weight, 0)
      .Num("served", static_cast<double>(stats.served()), 0)
      .Num("shed", static_cast<double>(stats.shed()), 0)
      .Num("shed_pct", stats.shed_ratio() * 100.0, 2)
      .Num("goodput_per_s",
           wall_seconds > 0 ? stats.served() / wall_seconds : 0, 0)
      .Num("read_p50_us", stats.read_latency.p50_us, 1)
      .Num("read_p99_us", stats.read_latency.p99_us, 1);
  return row;
}

void BenchReport::SetStages(const obs::StageWaterfall& stages) {
  stages_ = stages;
}

void BenchReport::SetHeat(const obs::HeatSection& heat) { heat_ = heat; }

void BenchReport::PrintTable(const std::string& title,
                             int column_width) const {
  // Column set: union over rows, in first-appearance order.
  std::vector<std::string> columns;
  for (const Row& row : rows_) {
    for (const auto& [column, cell] : row.cells_) {
      if (std::find(columns.begin(), columns.end(), column) ==
          columns.end()) {
        columns.push_back(column);
      }
    }
  }
  // Widen uniformly so long canonical names ("cpu_fallback_buckets") keep
  // the header aligned with the cells.
  for (const std::string& c : columns) {
    column_width = std::max(column_width, static_cast<int>(c.size()) + 2);
  }
  std::printf("\n=== %s ===\n", title.c_str());
  for (const std::string& c : columns) {
    std::printf("%-*s", column_width, c.c_str());
  }
  std::printf("\n");
  const std::string rule(column_width - 2, '-');
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s  ", rule.c_str());
  }
  std::printf("\n");
  for (const Row& row : rows_) {
    for (const std::string& column : columns) {
      const auto found = std::find_if(
          row.cells_.begin(), row.cells_.end(),
          [&column](const auto& named) { return named.first == column; });
      std::string text = "-";
      if (found != row.cells_.end() && found->second.numeric) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.*f",
                      found->second.precision, found->second.number);
        text = buffer;
      } else if (found != row.cells_.end()) {
        text = found->second.text;
      }
      std::printf("%-*s", column_width, text.c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

std::string BenchReport::ToJson(const obs::MetricsSnapshot* metrics) const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("hbtree.bench.v1");
  w.Key("bench");
  w.String(name_);
  w.Key("meta");
  w.BeginObject();
  for (const auto& [key, cell] : meta_) {
    w.Key(key);
    if (cell.numeric) {
      w.Number(cell.number);
    } else {
      w.String(cell.text);
    }
  }
  w.EndObject();
  w.Key("rows");
  w.BeginArray();
  for (const Row& row : rows_) {
    w.BeginObject();
    for (const auto& [column, cell] : row.cells_) {
      w.Key(column);
      if (cell.numeric) {
        w.Number(cell.number);
      } else {
        w.String(cell.text);
      }
    }
    w.EndObject();
  }
  w.EndArray();
  if (!stages_.empty()) {
    auto append_stages =
        [&w](const std::vector<std::pair<std::string, obs::StageStats>>&
                 stages) {
          w.BeginObject();
          for (const auto& [stage, s] : stages) {
            w.Key(stage);
            w.BeginObject();
            w.Key("count");
            w.Uint(s.count);
            w.Key("total_us");
            w.Number(s.total_us);
            w.Key("mean_us");
            w.Number(s.mean_us());
            w.Key("max_us");
            w.Number(s.max_us);
            w.Key("share");
            w.Number(s.share);
            w.EndObject();
          }
          w.EndObject();
        };
    w.Key("stages");
    w.BeginObject();
    w.Key("total_us");
    w.Number(stages_.total_us);
    w.Key("aggregate");
    append_stages(stages_.stages);
    w.Key("groups");
    w.BeginObject();
    for (const obs::StageGroup& group : stages_.groups) {
      w.Key(group.name);
      append_stages(group.stages);
    }
    w.EndObject();
    w.EndObject();
  }
  if (!heat_.empty()) {
    w.Key("heat");
    obs::AppendHeatJson(w, heat_);
  }
  if (metrics != nullptr) {
    w.Key("metrics");
    obs::MetricsRegistry::AppendJson(*metrics, &w);
  }
  w.EndObject();
  return w.str();
}

bool BenchReport::WriteJson(const std::string& path,
                            const obs::MetricsSnapshot* metrics) const {
  const std::string json = ToJson(metrics);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool ok = written == json.size() && std::fclose(file) == 0;
  if (ok) {
    std::printf("wrote %s (%zu bytes, schema hbtree.bench.v1)\n",
                path.c_str(), json.size());
  } else {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
  }
  return ok;
}

void MaybeWriteReport(const Args& args, const BenchReport& report,
                      const obs::MetricsSnapshot* metrics) {
  if (!args.Has("metrics_json")) return;
  if (!report.WriteJson(args.GetString("metrics_json", ""), metrics)) {
    std::exit(1);
  }
}

void MaybeStartTrace(const Args& args) {
  if (!args.Has("trace_out")) return;
  obs::TraceSession::Start();
}

void MaybeWriteTrace(const Args& args) {
  if (!args.Has("trace_out")) return;
  const std::string path = args.GetString("trace_out", "");
  obs::TraceSession::Stop();
  if (obs::TraceSession::event_count() == 0) {
    // This TU cannot see the bench's own HBTREE_OBS_TRACING setting, but
    // an empty session after a real workload means the spans were
    // compiled out of the binary.
    std::printf(
        "note: 0 trace events recorded — was this bench built with "
        "HBTREE_OBS_TRACING=1?\n");
  }
  if (obs::TraceSession::WriteChromeJson(path)) {
    std::printf("wrote %s (%zu trace events; load in Perfetto or "
                "chrome://tracing)\n",
                path.c_str(), obs::TraceSession::event_count());
  } else {
    std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
  }
}

}  // namespace hbtree::bench
