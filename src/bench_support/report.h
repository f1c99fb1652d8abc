#ifndef HBTREE_BENCH_SUPPORT_REPORT_H_
#define HBTREE_BENCH_SUPPORT_REPORT_H_

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/args.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/span_aggregator.h"
#include "serve/serve_stats.h"

namespace hbtree::bench {

/// Shared bench reporter: every figure/serving harness builds rows here
/// and gets a consistent console table plus a machine-readable JSON dump
/// (schema `hbtree.bench.v1`, validated by scripts/validate_metrics.py).
///
/// Column names are part of the schema: lowercase snake_case with the
/// unit suffixed (`reads_per_s`, `read_p99_us`, `mqps`). The serving
/// benches must route through AddServeStatsRow() so their column set
/// cannot drift between binaries again.
class BenchReport {
 public:
  struct Cell {
    bool numeric = false;
    double number = 0;
    int precision = 2;  // console formatting only; JSON keeps the double
    std::string text;
  };

  /// One result row; columns appear in insertion order.
  class Row {
   public:
    Row& Num(const std::string& column, double value, int precision = 2);
    Row& Text(const std::string& column, const std::string& value);

   private:
    friend class BenchReport;
    std::vector<std::pair<std::string, Cell>> cells_;
  };

  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Run provenance recorded under "meta" in the JSON (platform, sizes,
  /// seeds — whatever a reader needs to reproduce the row set).
  void Meta(const std::string& key, const std::string& value);
  void MetaNum(const std::string& key, double value);

  /// Rows live as long as the report; the returned reference stays valid
  /// across further AddRow calls.
  Row& AddRow();

  /// The canonical serving-layer column set, in canonical order:
  /// shards, read_workers, reads_per_s, updates_per_s, read_p50_us,
  /// read_p99_us, queue_wait_p99_us, modelled_ops_per_s (modelled
  /// serving capacity — total ops over the busiest shard's modelled busy
  /// time), sync_us (modelled I-segment mirror sync time), delta_syncs /
  /// full_syncs (which path each sync took), retries (transfer + kernel
  /// + sync), device_faults, breaker_opens, breaker_closes,
  /// cpu_fallback_buckets, shed (reads + updates). Callers may prepend
  /// their sweep variable before calling and append extra columns after.
  Row& AddServeStatsRow(Row& row, const serve::ServeStats& stats);

  /// The canonical per-tenant column set for multi-tenant serving
  /// benches, one row per tenant: tenant (index), name, priority,
  /// weight, served, shed, shed_pct, goodput_per_s (served ops over the
  /// stats' wall seconds — HIGHER_BETTER in regression gates),
  /// read_p50_us, read_p99_us. Callers prepend their sweep variable
  /// before calling, exactly like AddServeStatsRow.
  Row& AddTenantStatsRow(Row& row, int tenant,
                         const serve::TenantServeStats& stats,
                         double wall_seconds);

  /// Attaches a stage waterfall (obs::SpanAggregator::FromSession() of a
  /// traced run), emitted as the JSON's "stages" section: where the ops'
  /// time went per pipeline stage, aggregate and per shard/slot. A
  /// report carries at most one waterfall — conventionally the last
  /// (largest-topology) run, matching the embedded metrics snapshot.
  void SetStages(const obs::StageWaterfall& stages);

  /// Attaches a heat section (serve::Server::Heat() of a heat-enabled
  /// run), emitted as the JSON's "heat" section: the keyspace hot-range
  /// report, per-stage tree-level traffic, and pool temperatures. An
  /// empty section (heat compiled out) is silently dropped from the JSON.
  void SetHeat(const obs::HeatSection& heat);

  /// Console table over the union of row columns (first-appearance
  /// order); missing cells print "-".
  void PrintTable(const std::string& title, int column_width = 10) const;

  /// `hbtree.bench.v1` JSON; `metrics` (optional) embeds an
  /// `hbtree.metrics.v1` snapshot under "metrics".
  std::string ToJson(const obs::MetricsSnapshot* metrics = nullptr) const;
  /// Writes ToJson() to `path`; prints the path (or the error) to stdout/
  /// stderr. Returns false on I/O failure.
  bool WriteJson(const std::string& path,
                 const obs::MetricsSnapshot* metrics = nullptr) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, Cell>> meta_;
  std::deque<Row> rows_;  // deque: AddRow must not invalidate references
  obs::StageWaterfall stages_;
  obs::HeatSection heat_;
};

// -- Shared observability flags ---------------------------------------------
//
// Every serving/figure bench accepts:
//   --trace_out=<path>     record a TraceSession for the run and export
//                          Chrome trace-event JSON (load in Perfetto).
//                          Only spans compiled into the bench binary are
//                          recorded (HBTREE_OBS_TRACING=1 targets).
//   --metrics_json=<path>  write the BenchReport JSON (with embedded
//                          metrics snapshot where the bench has one).

/// Writes `report` (with `metrics` embedded, when given) to the
/// --metrics_json path if one was given; exits 1 on an I/O failure so a
/// gate never reads a stale report.
void MaybeWriteReport(const Args& args, const BenchReport& report,
                      const obs::MetricsSnapshot* metrics = nullptr);

/// Starts a trace session if --trace_out was given.
void MaybeStartTrace(const Args& args);
/// Stops the session (if one was started) and writes the Chrome JSON to
/// the --trace_out path. Safe to call without a prior MaybeStartTrace.
void MaybeWriteTrace(const Args& args);

}  // namespace hbtree::bench

#endif  // HBTREE_BENCH_SUPPORT_REPORT_H_
