#!/usr/bin/env python3
"""Regression sentinel: diffs two hbtree.bench.v1 reports.

Compares a candidate bench report against a checked-in baseline (e.g.
BENCH_serve.json) row by row and metric by metric, with per-metric
tolerance bands. Exits 1 when any watched metric regresses beyond its
band, 2 when the reports are not comparable (different bench, row sets,
or meta), 0 otherwise — so check.sh (mode `regress`) and CI can gate on
it directly.

Direction matters: throughput-like columns (reads_per_s, mqps, any
*_mqps, ...) regress when they DROP; latency-like columns (any *_us,
tlb_misses_per_query) regress when they RISE. Improvements are
reported but never fail the run. Stage waterfall shares are compared
by absolute difference (a share moving from 0.30 to 0.45 means the
pipeline's shape changed, whatever the totals did). When both reports
carry a "heat" section its shape is banded the same way: hot-range
concentration (top-1/top-8 share of sketched accesses), per-stage
level-traffic byte shares, and the top range's hot flag
(--heat-tolerance, absolute, default 0.15).

Rows are matched by (shards, read_workers) when both reports carry those
columns, else by index plus the row's text cells (the paper figures'
tree / strategy / distribution labels). Meta keys describing the
workload (n, clients, lookups_per_client, updates, bucket, platform,
seed, queries) must match unless --allow-meta-drift is given: comparing
different workloads is a user error, not a regression.

Usage:
  scripts/bench_compare.py BASELINE.json CANDIDATE.json
  scripts/bench_compare.py --tolerance 0.15 --stage-tolerance 0.2 \\
      --metric-tolerance read_p99_us=0.5 BENCH_serve.json new.json
"""

import argparse
import json
import sys

# Higher is better: a drop beyond tolerance is a regression.
HIGHER_BETTER = {
    "reads_per_s", "updates_per_s", "modelled_ops_per_s", "mqps",
    "hit_rate", "vs_baseline", "modelled_vs_baseline",
    # ycsb_workloads columns: wall throughput plus the op-shape counts,
    # which are deterministic given the seeded op streams — a drop means
    # the workload harness changed behaviour, not that the host was slow.
    "wall_ops_per_s", "scans", "scan_items", "inserts",
    # serve_overload per-tenant columns: goodput is the QoS deliverable
    # (served ops per second under overload) — a drop means the fair
    # scheduler stopped protecting the tenant.
    "goodput_per_s", "served",
    # Paper-figure columns: Fig 13's update rate and the device-side
    # I-segment build's PCIe saving.
    "mups", "saved_mb",
}
# Lower is better beyond the *_us rule: Fig 7's TLB misses per query.
LOWER_BETTER = {"tlb_misses_per_query"}
# Columns that are workload/topology identity or noisy bookkeeping, not
# performance: never compared.
SKIP = {
    "shards", "read_workers", "fault_rate", "overlapped_buckets",
    "update_batches", "retries", "device_faults", "breaker_opens",
    "breaker_closes", "cpu_fallback_buckets", "shed", "slo_max_burn",
    # Mirror-sync path counts are workload bookkeeping (how many batches
    # took the delta vs full path); the modelled cost they produce is
    # what matters, and sync_us is banded by the *_us rule.
    "delta_syncs", "full_syncs",
}
META_IDENTITY = ("platform", "n", "clients", "lookups_per_client",
                 "updates", "bucket", "seed", "retries", "deadline_us",
                 "queries",
                 # ycsb_workloads identity: the scenario name, its mix and
                 # skew knobs, the dataset kind, and the per-purpose seeds
                 # (a baseline from one op stream must not gate a run of
                 # another).
                 "scenario", "dataset", "mix", "chooser", "ops_per_client",
                 "seed_dataset", "seed_workload",
                 # serve_overload identity: the tenant/priority topology
                 # and load model. A baseline taken under one weight or
                 # deadline layout must not silently gate a run of a
                 # different one — that's an exit-2 mismatch, not a pass.
                 "tenants", "tenant_weights", "tenant_priorities",
                 "tenant_deadlines_us", "tenant_shares", "multipliers",
                 "pacing", "queue_capacity", "slo_us", "seconds")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL {path}: cannot parse: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "hbtree.bench.v1":
        print(f"FAIL {path}: not an hbtree.bench.v1 report "
              f"(schema {doc.get('schema')!r})", file=sys.stderr)
        sys.exit(2)
    return doc


def row_key(row, index):
    # serve_overload rows: the load multiplier keys the sweep point, and
    # the tenant index distinguishes the per-tenant rows from the
    # aggregate row (which carries shards/read_workers and no tenant).
    if "load_x" in row:
        key = f"load_x={row['load_x']:g}"
        if "tenant" in row:
            key += f",tenant={row['tenant']:g}"
        return key
    if "shards" in row and "read_workers" in row:
        return f"shards={row['shards']:g},workers={row['read_workers']:g}"
    if "fault_rate" in row:
        return f"fault_rate={row['fault_rate']:g}"
    labels = [v for v in row.values() if isinstance(v, str)]
    return f"row[{index}]" + (f"({','.join(labels)})" if labels else "")


def higher_better(column):
    return column in HIGHER_BETTER or column.endswith("_mqps")


def lower_better(column):
    return column in LOWER_BETTER or column.endswith("_us")


def watched(column):
    return column not in SKIP and (higher_better(column) or
                                   lower_better(column))


class Comparison:
    def __init__(self, args):
        self.args = args
        self.regressions = []
        self.improvements = []
        self.compared = 0

    def tolerance_for(self, column):
        return self.args.per_metric.get(column, self.args.tolerance)

    def check(self, where, column, base, cand):
        if not isinstance(base, (int, float)) or isinstance(base, bool):
            return
        if not isinstance(cand, (int, float)) or isinstance(cand, bool):
            self.regressions.append(
                f"{where}.{column}: candidate value is not numeric")
            return
        self.compared += 1
        tol = self.tolerance_for(column)
        if base == 0:
            # No baseline signal (e.g. a p99 of 0): nothing to band.
            return
        delta = (cand - base) / abs(base)
        worse = -delta if higher_better(column) else delta
        line = (f"{where}.{column}: {base:g} -> {cand:g} "
                f"({delta:+.1%}, tolerance {tol:.1%})")
        if worse > tol:
            self.regressions.append(line)
        elif worse < -tol:
            self.improvements.append(line)

    def check_share(self, where, stage, base, cand):
        self.compared += 1
        diff = abs(cand - base)
        if diff > self.args.stage_tolerance:
            self.regressions.append(
                f"{where}.{stage}.share: {base:.2f} -> {cand:.2f} "
                f"(moved {diff:.2f}, tolerance "
                f"{self.args.stage_tolerance:.2f})")


def compare_rows(cmp, baseline, candidate):
    base_rows = {row_key(r, i): r for i, r in enumerate(baseline["rows"])}
    cand_rows = {row_key(r, i): r for i, r in enumerate(candidate["rows"])}
    if base_rows.keys() != cand_rows.keys():
        print(f"FAIL: row sets differ: baseline {sorted(base_rows)} vs "
              f"candidate {sorted(cand_rows)}", file=sys.stderr)
        sys.exit(2)
    for key, base_row in base_rows.items():
        cand_row = cand_rows[key]
        for column, base_value in base_row.items():
            if not watched(column) or column not in cand_row:
                continue
            cmp.check(key, column, base_value, cand_row[column])


def heat_concentration(heat, k):
    """Share of all sketched accesses landing in the top-k ranges."""
    keyspace = heat.get("keyspace", {})
    total = keyspace.get("total", 0)
    if not total:
        return None
    ranges = keyspace.get("ranges", [])
    return sum(r.get("count", 0) for r in ranges[:k]) / total


def heat_level_shares(heat):
    """Per-stage map of cell -> share of that stage's modelled bytes."""
    shares = {}
    for stage, cells in heat.get("levels", {}).items():
        stage_bytes = sum(c.get("bytes", 0) for c in cells.values())
        if stage_bytes == 0:
            continue
        shares[stage] = {cell: c.get("bytes", 0) / stage_bytes
                         for cell, c in cells.items()}
    return shares


def kernel_level_ratios(heat):
    """Per-level node_loads/node_queries of the batched GPU traversal.

    The ratio is the level-wise dedup fingerprint: ~0 at the root (every
    batch shares one node), rising towards 1 at the fan-out levels. A
    ratio drifting up means runs stopped collapsing (sort broken, runs
    fragmented); drifting down this much means the traffic model changed.
    """
    kernel = heat.get("kernel")
    if not kernel:
        return None
    loads = kernel.get("node_loads", [])
    queries = kernel.get("node_queries", [])
    return {level: loads[level] / q
            for level, q in enumerate(queries)
            if q > 0 and level < len(loads)}


def compare_heat(cmp, baseline, candidate):
    """Heat-shape drift bands: the workload's access pattern fingerprint.

    Hot-range concentration (top-1 / top-8 share of sketched accesses)
    and per-stage level-traffic shares are compared by absolute
    difference, like stage shares: a zipfian run whose top range share
    drops from 0.50 to 0.30 changed skew handling even if throughput
    held. Hot-flag disagreement on the baseline's top range is flagged
    too — the negative control (uniform) must stay cold and the skewed
    scenarios must stay hot.
    """
    base = baseline.get("heat")
    cand = candidate.get("heat")
    if base is None or cand is None:
        return
    for k in (1, 8):
        b = heat_concentration(base, k)
        c = heat_concentration(cand, k)
        if b is None or c is None:
            continue
        cmp.compared += 1
        diff = abs(c - b)
        if diff > cmp.args.heat_tolerance:
            cmp.regressions.append(
                f"heat.keyspace.top{k}_share: {b:.3f} -> {c:.3f} "
                f"(moved {diff:.3f}, tolerance "
                f"{cmp.args.heat_tolerance:.2f})")
    base_ranges = base.get("keyspace", {}).get("ranges", [])
    cand_ranges = cand.get("keyspace", {}).get("ranges", [])
    if base_ranges and cand_ranges:
        cmp.compared += 1
        if base_ranges[0].get("hot") != cand_ranges[0].get("hot"):
            cmp.regressions.append(
                f"heat.keyspace.ranges[0].hot: "
                f"{base_ranges[0].get('hot')} -> "
                f"{cand_ranges[0].get('hot')} (the top range changed "
                f"temperature class)")
    base_kernel = kernel_level_ratios(base)
    cand_kernel = kernel_level_ratios(cand)
    if base_kernel and cand_kernel is not None:
        for level, b in base_kernel.items():
            c = cand_kernel.get(level)
            if c is None:
                cmp.regressions.append(
                    f"heat.kernel.level{level}: baseline saw kernel "
                    f"traffic at this tree level, candidate saw none")
                continue
            cmp.compared += 1
            diff = abs(c - b)
            if diff > cmp.args.heat_tolerance:
                cmp.regressions.append(
                    f"heat.kernel.level{level}.loads_per_query: "
                    f"{b:.3f} -> {c:.3f} (moved {diff:.3f}, tolerance "
                    f"{cmp.args.heat_tolerance:.2f})")
    base_shares = heat_level_shares(base)
    cand_shares = heat_level_shares(cand)
    for stage, cells in base_shares.items():
        if stage not in cand_shares:
            cmp.regressions.append(
                f"heat.levels.{stage}: carried traffic in the baseline, "
                f"none in the candidate")
            continue
        for cell, b in cells.items():
            c = cand_shares[stage].get(cell, 0.0)
            cmp.compared += 1
            diff = abs(c - b)
            if diff > cmp.args.heat_tolerance:
                cmp.regressions.append(
                    f"heat.levels.{stage}.{cell}.bytes_share: "
                    f"{b:.3f} -> {c:.3f} (moved {diff:.3f}, tolerance "
                    f"{cmp.args.heat_tolerance:.2f})")


def compare_stages(cmp, baseline, candidate):
    base = baseline.get("stages")
    cand = candidate.get("stages")
    if base is None or cand is None:
        return
    # Aggregate shares only: per-group shares wobble with scheduling, the
    # aggregate shape is the stable fingerprint of the pipeline.
    for stage, s in base.get("aggregate", {}).items():
        c = cand.get("aggregate", {}).get(stage)
        if c is None:
            cmp.regressions.append(
                f"stages.{stage}: present in baseline, missing in candidate")
            continue
        cmp.check_share("stages", stage, s["share"], c["share"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--tolerance", type=float, default=0.08,
                        help="default relative tolerance band "
                             "(default 8%%)")
    parser.add_argument("--stage-tolerance", type=float, default=0.10,
                        help="absolute band for aggregate stage shares "
                             "(default 0.10)")
    parser.add_argument("--heat-tolerance", type=float, default=0.15,
                        help="absolute band for heat-shape drift: hot-"
                             "range concentration and per-stage level "
                             "traffic shares (default 0.15)")
    parser.add_argument("--metric-tolerance", action="append", default=[],
                        metavar="COLUMN=TOL",
                        help="per-metric override, e.g. read_p99_us=0.5")
    parser.add_argument("--allow-meta-drift", action="store_true",
                        help="compare even when the workload meta differs")
    args = parser.parse_args()
    args.per_metric = {}
    for spec in args.metric_tolerance:
        column, _, value = spec.partition("=")
        try:
            args.per_metric[column] = float(value)
        except ValueError:
            parser.error(f"bad --metric-tolerance {spec!r}")

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    if baseline.get("bench") != candidate.get("bench"):
        print(f"FAIL: different benches: {baseline.get('bench')!r} vs "
              f"{candidate.get('bench')!r}", file=sys.stderr)
        return 2
    drift = [k for k in META_IDENTITY
             if baseline.get("meta", {}).get(k) !=
             candidate.get("meta", {}).get(k)
             and (k in baseline.get("meta", {}) or
                  k in candidate.get("meta", {}))]
    if drift:
        msg = (f"workload meta differs on {drift} — these runs measured "
               f"different things")
        if not args.allow_meta_drift:
            print(f"FAIL: {msg} (pass --allow-meta-drift to override)",
                  file=sys.stderr)
            return 2
        print(f"warning: {msg}", file=sys.stderr)

    cmp = Comparison(args)
    compare_rows(cmp, baseline, candidate)
    compare_stages(cmp, baseline, candidate)
    compare_heat(cmp, baseline, candidate)

    for line in cmp.improvements:
        print(f"  improved   {line}")
    for line in cmp.regressions:
        print(f"  REGRESSED  {line}", file=sys.stderr)
    verdict = "REGRESSION" if cmp.regressions else "OK"
    print(f"{verdict}: {cmp.compared} metric(s) compared, "
          f"{len(cmp.regressions)} regressed, "
          f"{len(cmp.improvements)} improved "
          f"({args.baseline} -> {args.candidate})")
    return 1 if cmp.regressions else 0


if __name__ == "__main__":
    sys.exit(main())
