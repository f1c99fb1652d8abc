#!/usr/bin/env python3
"""Validates hbtree metrics/bench JSON emitted by the observability layer.

Accepts either schema:
  * hbtree.metrics.v1 — a bare MetricsRegistry snapshot
    (obs::MetricsRegistry::ToJson)
  * hbtree.bench.v1   — a BenchReport dump; its rows are checked and an
    embedded "metrics" object, when present, is validated as metrics.v1

Fails (exit 1) on: unparseable JSON, unknown schema, missing required
keys, non-finite numbers (the C++ JSON writer turns NaN/inf into null,
so any null value is a poisoned metric), negative counters, malformed
histogram summaries (percentiles above the max, p50 > p99, ...),
malformed exemplars, a malformed bench "stages" waterfall, or a
malformed "heat" section (mis-sorted top-K ranges, shard totals that
don't reconcile with the merged total, tenant counts that don't sum to
their range, hit-level bytes that don't sum back to a cell's bytes,
pool temperature classes that don't sum to the segment count).

With --trace TRACE.json the exemplars are cross-checked against the
exported Chrome trace: every exemplar stamped with the trace's session
id must carry a span_id that resolves to a recorded span (exemplars
from other sessions are skipped — a lifetime registry can outlive a
trace session).

With --paper-verdicts every report must be a paper-figure report
(bench/fig*, bench/ext_*) whose rows uphold the figure's verdict in
EXPERIMENTS.md: who wins, the orderings, and the ratio thresholds.
On M1 the Figs 10-12 runs must also stage no bucket in key order: their
CPU stage bounds the pipeline, so a sort can only lengthen it. On M2 the
Fig 18 regular-tree runs must sort buckets: their kernel is slow enough
that sorting pays.

Usage: scripts/validate_metrics.py FILE [FILE ...]
       scripts/validate_metrics.py --require-counter serve.lookups FILE
       scripts/validate_metrics.py --trace trace.json \\
           --require-exemplars serve.read_latency BENCH_serve.json
       scripts/validate_metrics.py --paper-verdicts build/PAPER/*.json
"""

import argparse
import json
import math
import sys

# Set when a bench is expected to have exercised the serving layer; lets
# check.sh assert the fault-injected run actually recorded activity.
REQUIRED_HISTOGRAM_KEYS = ("count", "p50_us", "p90_us", "p99_us",
                           "max_us", "mean_us")
REQUIRED_EXEMPLAR_KEYS = ("bucket_us", "trace_id", "span_id", "shard",
                          "wall_us", "modelled_us")
REQUIRED_STAGE_KEYS = ("count", "total_us", "mean_us", "max_us", "share")
REQUIRED_HEAT_RANGE_KEYS = ("lo", "hi", "shard", "count", "share", "hot",
                            "tenants")
# hit_bytes[HitLevel] split of each cell's bytes — must sum back exactly.
REQUIRED_HEAT_CELL_KEYS = ("touches", "bytes", "l1_bytes", "l2_bytes",
                           "l3_bytes", "dram_bytes")
REQUIRED_HEAT_POOL_KEYS = ("segments", "hot", "warm", "cold",
                           "cold_fraction")
# LatencyHistogram::kMaxExemplars — the reservoir is bounded per
# histogram, so more than this in a serialized summary means the bound
# was lost somewhere (e.g. a MergeFrom that concatenates).
MAX_EXEMPLARS = 8


class ValidationError(Exception):
    pass


def fail(path, message):
    raise ValidationError(f"{path}: {message}")


def check_finite_number(path, name, value):
    if value is None:
        fail(path, f"{name} is null (a NaN/inf was serialized)")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(path, f"{name} is not a number: {value!r}")
    if not math.isfinite(value):
        fail(path, f"{name} is not finite: {value!r}")


def validate_histogram(path, name, summary):
    if not isinstance(summary, dict):
        fail(path, f"histogram {name} is not an object")
    for key in REQUIRED_HISTOGRAM_KEYS:
        if key not in summary:
            fail(path, f"histogram {name} missing key {key}")
        check_finite_number(path, f"histogram {name}.{key}", summary[key])
    if summary["count"] < 0:
        fail(path, f"histogram {name} has negative count")
    if summary["count"] > 0:
        if not (summary["p50_us"] <= summary["p90_us"] <=
                summary["p99_us"] <= summary["max_us"] + 1e-9):
            fail(path, f"histogram {name} percentiles are not monotone")
        for key in REQUIRED_HISTOGRAM_KEYS[1:]:
            if summary[key] < 0:
                fail(path, f"histogram {name}.{key} is negative")
    validate_exemplars(path, name, summary)


def validate_exemplars(path, name, summary):
    exemplars = summary.get("exemplars")
    if exemplars is None:
        return
    if not isinstance(exemplars, list):
        fail(path, f"histogram {name}.exemplars is not an array")
    if len(exemplars) > MAX_EXEMPLARS:
        fail(path, f"histogram {name} has {len(exemplars)} exemplars; the "
                   f"reservoir is bounded at {MAX_EXEMPLARS}")
    if exemplars and summary["count"] == 0:
        fail(path, f"histogram {name} has exemplars but zero samples")
    for i, ex in enumerate(exemplars):
        if not isinstance(ex, dict):
            fail(path, f"histogram {name} exemplar {i} is not an object")
        for key in REQUIRED_EXEMPLAR_KEYS:
            if key not in ex:
                fail(path, f"histogram {name} exemplar {i} missing {key}")
            check_finite_number(path, f"histogram {name} exemplar {i}.{key}",
                                ex[key])
        for key in ("trace_id", "span_id"):
            if ex[key] != int(ex[key]) or ex[key] <= 0:
                fail(path, f"histogram {name} exemplar {i}.{key} is not a "
                           f"positive integer: {ex[key]!r}")
        if ex["wall_us"] < 0 or ex["modelled_us"] < 0:
            fail(path, f"histogram {name} exemplar {i} has negative latency")
        if summary["count"] > 0 and ex["wall_us"] > summary["max_us"] + 1e-9:
            fail(path, f"histogram {name} exemplar {i} wall_us "
                       f"{ex['wall_us']} exceeds the histogram max "
                       f"{summary['max_us']}")


def validate_stage_map(path, context, stages):
    if not isinstance(stages, dict):
        fail(path, f"{context} is not an object")
    share_sum = 0.0
    for stage, s in stages.items():
        if not isinstance(s, dict):
            fail(path, f"{context}.{stage} is not an object")
        for key in REQUIRED_STAGE_KEYS:
            if key not in s:
                fail(path, f"{context}.{stage} missing key {key}")
            check_finite_number(path, f"{context}.{stage}.{key}", s[key])
            if s[key] < 0:
                fail(path, f"{context}.{stage}.{key} is negative")
        if not 0 <= s["share"] <= 1 + 1e-9:
            fail(path, f"{context}.{stage}.share out of [0,1]: {s['share']}")
        share_sum += s["share"]
    if stages and abs(share_sum - 1.0) > 1e-6:
        fail(path, f"{context} stage shares sum to {share_sum}, not 1")


def validate_stages(path, stages):
    for key in ("total_us", "aggregate", "groups"):
        if key not in stages:
            fail(path, f"stages section missing key {key}")
    check_finite_number(path, "stages.total_us", stages["total_us"])
    validate_stage_map(path, "stages.aggregate", stages["aggregate"])
    if not isinstance(stages["groups"], dict):
        fail(path, "stages.groups is not an object")
    for group, group_stages in stages["groups"].items():
        validate_stage_map(path, f"stages.groups.{group}", group_stages)
    return (f"{len(stages['aggregate'])} stages over "
            f"{len(stages['groups'])} groups")


def validate_heat_keyspace(path, keyspace):
    for key in ("total", "bins", "hot_threshold_share", "shard_totals",
                "ranges"):
        if key not in keyspace:
            fail(path, f"heat.keyspace missing key {key}")
    check_finite_number(path, "heat.keyspace.total", keyspace["total"])
    check_finite_number(path, "heat.keyspace.bins", keyspace["bins"])
    check_finite_number(path, "heat.keyspace.hot_threshold_share",
                        keyspace["hot_threshold_share"])
    if keyspace["bins"] <= 0:
        fail(path, f"heat.keyspace.bins must be positive: {keyspace['bins']}")
    if not isinstance(keyspace["shard_totals"], list):
        fail(path, "heat.keyspace.shard_totals is not an array")
    for i, total in enumerate(keyspace["shard_totals"]):
        check_finite_number(path, f"heat.keyspace.shard_totals[{i}]", total)
        if total < 0:
            fail(path, f"heat.keyspace.shard_totals[{i}] is negative")
    # Bin totals are derived as per-tenant sums, so the shard merge must
    # reconcile exactly — any drift means a sketch lost or double-counted.
    merged = sum(keyspace["shard_totals"])
    if merged != keyspace["total"]:
        fail(path, f"heat.keyspace shard_totals sum to {merged}, not the "
                   f"merged total {keyspace['total']}")
    ranges = keyspace["ranges"]
    if not isinstance(ranges, list):
        fail(path, "heat.keyspace.ranges is not an array")
    prev_count = None
    for i, r in enumerate(ranges):
        ctx = f"heat.keyspace.ranges[{i}]"
        if not isinstance(r, dict):
            fail(path, f"{ctx} is not an object")
        for key in REQUIRED_HEAT_RANGE_KEYS:
            if key not in r:
                fail(path, f"{ctx} missing key {key}")
            if key not in ("hot", "tenants"):
                check_finite_number(path, f"{ctx}.{key}", r[key])
        if r["lo"] > r["hi"]:
            fail(path, f"{ctx} has lo {r['lo']} > hi {r['hi']}")
        if not 0 <= r["shard"] < max(1, len(keyspace["shard_totals"])):
            fail(path, f"{ctx}.shard {r['shard']} out of range")
        if r["count"] < 0:
            fail(path, f"{ctx}.count is negative")
        if not 0 <= r["share"] <= 1 + 1e-9:
            fail(path, f"{ctx}.share out of [0,1]: {r['share']}")
        if not isinstance(r["hot"], bool):
            fail(path, f"{ctx}.hot is not a boolean")
        # Top-K report must come ranked; a mis-sorted list means the
        # merge heap dropped the wrong bins.
        if prev_count is not None and r["count"] > prev_count:
            fail(path, f"{ctx} breaks the non-increasing count order "
                       f"({r['count']} after {prev_count})")
        prev_count = r["count"]
        if not isinstance(r["tenants"], dict):
            fail(path, f"{ctx}.tenants is not an object")
        tenant_sum = 0
        for tenant, count in r["tenants"].items():
            check_finite_number(path, f"{ctx}.tenants.{tenant}", count)
            if count < 0:
                fail(path, f"{ctx}.tenants.{tenant} is negative")
            tenant_sum += count
        if tenant_sum != r["count"]:
            fail(path, f"{ctx} tenant counts sum to {tenant_sum}, not the "
                       f"range count {r['count']}")
    return len(ranges)


def validate_heat_levels(path, levels):
    if not isinstance(levels, dict):
        fail(path, "heat.levels is not an object")
    cells = 0
    for stage, stage_cells in levels.items():
        if not isinstance(stage_cells, dict):
            fail(path, f"heat.levels.{stage} is not an object")
        for cell, traffic in stage_cells.items():
            ctx = f"heat.levels.{stage}.{cell}"
            if not isinstance(traffic, dict):
                fail(path, f"{ctx} is not an object")
            for key in REQUIRED_HEAT_CELL_KEYS:
                if key not in traffic:
                    fail(path, f"{ctx} missing key {key}")
                check_finite_number(path, f"{ctx}.{key}", traffic[key])
                if traffic[key] < 0:
                    fail(path, f"{ctx}.{key} is negative")
            split = (traffic["l1_bytes"] + traffic["l2_bytes"] +
                     traffic["l3_bytes"] + traffic["dram_bytes"])
            if split != traffic["bytes"]:
                fail(path, f"{ctx} hit-level bytes sum to {split}, not "
                           f"bytes {traffic['bytes']}")
            cells += 1
    return cells


def validate_heat_pools(path, pools):
    if not isinstance(pools, dict):
        fail(path, "heat.pools is not an object")
    for pool, temp in pools.items():
        ctx = f"heat.pools.{pool}"
        if not isinstance(temp, dict):
            fail(path, f"{ctx} is not an object")
        for key in REQUIRED_HEAT_POOL_KEYS:
            if key not in temp:
                fail(path, f"{ctx} missing key {key}")
            check_finite_number(path, f"{ctx}.{key}", temp[key])
            if temp[key] < 0:
                fail(path, f"{ctx}.{key} is negative")
        if temp["hot"] + temp["warm"] + temp["cold"] != temp["segments"]:
            fail(path, f"{ctx} temperature classes sum to "
                       f"{temp['hot'] + temp['warm'] + temp['cold']}, not "
                       f"segments {temp['segments']}")
        if not 0 <= temp["cold_fraction"] <= 1 + 1e-9:
            fail(path, f"{ctx}.cold_fraction out of [0,1]: "
                       f"{temp['cold_fraction']}")
    return len(pools)


def validate_heat_kernel(path, kernel):
    """Checks the level-wise dispatch reconciliation invariant.

    node_loads[l] counts nodes the batched kernel actually materialised
    at tree level l; node_queries[l] counts queries that passed through
    that level.  Level-wise dispatch resolves a run of queries sharing a
    node with one load, so wherever a level saw traffic the loads must
    be in [1, queries], and across a whole serve run (many batches, a
    shared root) the totals must collapse strictly below one-load-per-
    query — equality means the dedup never fired.
    """
    if not isinstance(kernel, dict):
        fail(path, "heat.kernel is not an object")
    for key in ("launches", "dram_bytes", "l2_bytes", "node_loads",
                "node_queries"):
        if key not in kernel:
            fail(path, f"heat.kernel missing key {key}")
    for key in ("launches", "dram_bytes", "l2_bytes"):
        check_finite_number(path, f"heat.kernel.{key}", kernel[key])
        if kernel[key] < 0:
            fail(path, f"heat.kernel.{key} is negative")
    loads, queries = kernel["node_loads"], kernel["node_queries"]
    if not isinstance(loads, list) or not isinstance(queries, list):
        fail(path, "heat.kernel node_loads/node_queries must be arrays")
    if len(loads) != len(queries):
        fail(path, f"heat.kernel node_loads has {len(loads)} levels but "
                   f"node_queries has {len(queries)}")
    for level, (l, q) in enumerate(zip(loads, queries)):
        ctx = f"heat.kernel level {level}"
        check_finite_number(path, f"{ctx} node_loads", l)
        check_finite_number(path, f"{ctx} node_queries", q)
        if l < 0 or q < 0:
            fail(path, f"{ctx} has a negative counter")
        if q > 0 and not 1 <= l <= q:
            fail(path, f"{ctx} loaded {l} nodes for {q} queries "
                       f"(expected 1 <= loads <= queries)")
        if q == 0 and l != 0:
            fail(path, f"{ctx} loaded {l} nodes but saw no queries")
    total_loads, total_queries = sum(loads), sum(queries)
    active = sum(1 for q in queries if q > 0)
    # Strictness only holds once batches average more than one query per
    # level (a degenerate 1-query batch legitimately loads 1 node/level).
    if total_queries > kernel["launches"] * max(active, 1):
        if total_loads >= total_queries:
            fail(path, f"heat.kernel loads {total_loads} did not collapse "
                       f"below queries {total_queries}; level-wise dedup "
                       f"is not taking effect")
    return f"{active} active levels, {total_loads}/{total_queries} loads"


def validate_heat(path, heat):
    for key in ("keyspace", "levels", "pools"):
        if key not in heat:
            fail(path, f"heat section missing key {key}")
    ranges = validate_heat_keyspace(path, heat["keyspace"])
    cells = validate_heat_levels(path, heat["levels"])
    pools = validate_heat_pools(path, heat["pools"])
    detail = f"{ranges} ranges, {cells} level cells, {pools} pools"
    if "kernel" in heat:
        detail += "; kernel: " + validate_heat_kernel(path, heat["kernel"])
    return detail


def validate_metrics_v1(path, doc):
    for key in ("schema", "windowed", "window_seconds", "counters",
                "gauges", "histograms"):
        if key not in doc:
            fail(path, f"metrics object missing key {key}")
    check_finite_number(path, "window_seconds", doc["window_seconds"])
    if doc["window_seconds"] < 0:
        fail(path, "window_seconds is negative")
    for name, value in doc["counters"].items():
        check_finite_number(path, f"counter {name}", value)
        if value < 0 or value != int(value):
            fail(path, f"counter {name} is not a non-negative integer")
    for name, value in doc["gauges"].items():
        check_finite_number(path, f"gauge {name}", value)
    for name, summary in doc["histograms"].items():
        validate_histogram(path, name, summary)
    return (f"{len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
            f"{len(doc['histograms'])} histograms")


def validate_bench_v1(path, doc):
    for key in ("schema", "bench", "meta", "rows"):
        if key not in doc:
            fail(path, f"bench object missing key {key}")
    if not isinstance(doc["rows"], list) or not doc["rows"]:
        fail(path, "bench rows must be a non-empty array")
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict) or not row:
            fail(path, f"row {i} must be a non-empty object")
        for column, value in row.items():
            if isinstance(value, str):
                continue
            check_finite_number(path, f"row {i} column {column}", value)
    detail = f"{len(doc['rows'])} rows"
    if "stages" in doc:
        detail += "; stages: " + validate_stages(path, doc["stages"])
    if "heat" in doc:
        detail += "; heat: " + validate_heat(path, doc["heat"])
    if "metrics" in doc:
        detail += "; metrics: " + validate_metrics_v1(path, doc["metrics"])
    return detail


def load_trace_spans(path):
    """Returns (trace_id, set of span_ids) from a Chrome trace export."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"cannot parse trace: {e}")
    trace_id = trace.get("traceId")
    if not isinstance(trace_id, int) or trace_id <= 0:
        fail(path, f"trace has no usable top-level traceId: {trace_id!r}")
    span_ids = set()
    for event in trace.get("traceEvents", []):
        span_id = event.get("args", {}).get("span_id")
        if isinstance(span_id, int) and span_id > 0:
            span_ids.add(span_id)
    return trace_id, span_ids


def iter_histograms(doc):
    metrics = doc if doc.get("schema") == "hbtree.metrics.v1" \
        else doc.get("metrics", {})
    yield from metrics.get("histograms", {}).items()


def check_exemplars_against_trace(path, doc, trace_id, span_ids):
    """Every exemplar from the trace's session must resolve to a span."""
    resolved = 0
    skipped = 0
    for name, summary in iter_histograms(doc):
        for i, ex in enumerate(summary.get("exemplars", [])):
            if int(ex["trace_id"]) != trace_id:
                skipped += 1  # captured under an earlier/other session
                continue
            if int(ex["span_id"]) not in span_ids:
                fail(path, f"histogram {name} exemplar {i} span_id "
                           f"{ex['span_id']} does not resolve in the trace "
                           f"(trace_id {trace_id} matches)")
            resolved += 1
    return resolved, skipped


def check_required_exemplars(path, doc, names):
    """Each named histogram needs >= 1 exemplar from its own tail.

    The reservoir targets the p99+ region; tolerate adaptive-threshold
    lag by only requiring the best exemplar to reach 80% of p99.
    """
    histograms = dict(iter_histograms(doc))
    for name in names:
        if name not in histograms:
            fail(path, f"histogram {name} (--require-exemplars) is absent")
        summary = histograms[name]
        exemplars = summary.get("exemplars", [])
        if not exemplars:
            fail(path, f"histogram {name} recorded {summary['count']} "
                       f"samples but captured no exemplars")
        best = max(ex["wall_us"] for ex in exemplars)
        if best < 0.8 * summary["p99_us"]:
            fail(path, f"histogram {name} exemplars top out at "
                       f"{best:.1f}us, below 80% of p99 "
                       f"({summary['p99_us']:.1f}us) — not tail samples")


# -- Paper-figure verdicts --------------------------------------------------
#
# Each takes a figure report's rows and returns (holds, claim) pairs; the
# claim text names the measured values so a broken verdict explains
# itself.

def by_label(rows, *columns):
    return {tuple(r[c] for c in columns): r for r in rows}


def trees(rows):
    return sorted({r["tree"] for r in rows})


def by_size(rows):
    return sorted(rows, key=lambda r: r["tuples_log2"])


def log2_sizes(rows):
    return sorted({r["tuples_log2"] for r in rows})


def rising(values):
    return all(a < b for a, b in zip(values, values[1:]))


def verdict_fig07(rows):
    r = by_label(rows, "tree", "tuples_log2", "config")
    log2s = log2_sizes(rows)
    claims = []
    for tree in trees(rows):
        cfg1 = [r[(tree, n, "4K/4K")]["tlb_misses_per_query"] for n in log2s]
        claims.append((rising(cfg1),
                       f"{tree}: 4K/4K TLB misses grow with size "
                       f"({', '.join(f'{m:.3f}' for m in cfg1)}/query)"))
        for n in log2s:
            cfg1, cfg2, cfg3 = (r[(tree, n, c)]["mqps"]
                                for c in ("4K/4K", "1G/4K", "1G/1G"))
            strict = n == log2s[-1]
            claims.append((cfg3 >= cfg2 > cfg1 if strict
                           else cfg3 >= cfg2 >= cfg1,
                           f"{tree} 2^{n:g}: 1G/1G {cfg3:.1f} >= 1G/4K "
                           f"{cfg2:.1f} {'>' if strict else '>='} 4K/4K "
                           f"{cfg1:.1f} MQPS"))
    # The huge-page TLB bounds hold for the implicit tree only: the
    # regular tree's node pools put every 2048-node chunk on its own
    # synthetic 1 GB page (EXPERIMENTS.md deviation 7).
    for n in log2s:
        cfg2, cfg3 = (r[("implicit", n, c)]["tlb_misses_per_query"]
                      for c in ("1G/4K", "1G/1G"))
        claims.append((cfg2 <= 1.0, f"implicit 2^{n:g}: 1G/4K {cfg2:.3f} "
                                    f"<= 1 TLB miss/query"))
        claims.append((cfg3 < 0.01, f"implicit 2^{n:g}: 1G/1G {cfg3:.3f} "
                                    f"~ 0 TLB misses/query"))
    return claims


def verdict_fig08(rows):
    r = by_label(rows, "tuples_log2", "algorithm")
    log2s = log2_sizes(rows)
    claims = []
    for n in log2s:
        plain, seq, lin, hier = (r[(n, a)]["mqps"] for a in (
            "seq (no SWP)", "sequential", "linear", "hierarchical"))
        claims.append((hier > lin > seq >= plain,
                       f"2^{n:g}: hierarchical {hier:.1f} > linear "
                       f"{lin:.1f} > sequential {seq:.1f} >= no-SWP "
                       f"{plain:.1f} MQPS"))
    edge = [r[(n, "hierarchical")]["mqps"] / r[(n, "sequential")]["mqps"]
            for n in log2s]
    claims.append((all(a >= b for a, b in zip(edge, edge[1:]))
                   and edge[-1] < edge[0],
                   f"the SIMD edge shrinks with size (hierarchical / "
                   f"sequential {edge[0]:.2f}x -> {edge[-1]:.2f}x)"))
    return claims


def verdict_fig09(rows):
    speedups = [r["btree_mqps"] / r["fast_mqps"] for r in rows]
    average = sum(speedups) / len(speedups)
    return [(min(speedups) > 1,
             f"the B+-tree beats FAST at every size (min "
             f"{min(speedups):.2f}x)"),
            (1.2 <= average <= 1.4,
             f"average speedup {average:.2f}x ~ 1.3x")]


def verdict_fig10(rows):
    r = by_label(rows, "tree", "strategy")
    claims = []
    for tree in trees(rows):
        seq, pipe, dbl = (r[(tree, s)]["mqps"] for s in
                          ("sequential", "pipelined", "double-buffered"))
        claims.append((dbl >= pipe > seq,
                       f"{tree}: double-buffered {dbl:.1f} >= pipelined "
                       f"{pipe:.1f} > sequential {seq:.1f} MQPS"))
    return claims


def verdict_fig11(rows):
    claims = []
    for tree in trees(rows):
        sweep = sorted((r["bucket"], r["latency_us"]) for r in rows
                       if r["tree"] == tree)
        latencies = [lat for _, lat in sweep]
        claims.append((all(a < b for a, b in zip(latencies, latencies[1:])),
                       f"{tree}: latency rises with the bucket size "
                       f"({', '.join(f'{lat:.0f}' for lat in latencies)} us)"))
    return claims


def verdict_fig12(rows):
    r = by_label(rows, "tree", "distribution")
    claims = []
    for tree in trees(rows):
        mqps = {d: r[(tree, d)]["mqps"]
                for d in ("uniform", "normal", "gamma", "zipf")}
        claims.append((mqps["zipf"] > mqps["normal"],
                       f"{tree}: Zipf {mqps['zipf']:.1f} > Normal "
                       f"{mqps['normal']:.1f} MQPS"))
        claims.append((mqps["gamma"] >= mqps["uniform"],
                       f"{tree}: Gamma {mqps['gamma']:.1f} >= Uniform "
                       f"{mqps['uniform']:.1f} MQPS"))
    return claims


def verdict_fig13(rows):
    r = by_label(rows, "tuples_log2", "method")
    log2s = log2_sizes(rows)
    claims = []
    for n in log2s:
        single, parallel, synced = (r[(n, m)] for m in (
            "async-1t", "async-parallel", "synchronized"))
        gain = parallel["mups"] / single["mups"]
        claims.append((2.5 <= gain <= 3.5,
                       f"2^{n:g}: parallel async {gain:.2f}x "
                       f"single-threaded ~ 3x"))
        claims.append((synced["mups"] < single["mups"],
                       f"2^{n:g}: synchronized {synced['mups']:.2f} < "
                       f"async-1t {single['mups']:.2f} Mupd/s"))
    # Fig 13b: the async methods' one bulk I-segment upload.
    for a, b in zip(log2s, log2s[1:]):
        sync_a = r[(a, "async-1t")]["sync_us"]
        sync_b = r[(b, "async-1t")]["sync_us"]
        growth = (sync_b / sync_a) / 2 ** (b - a)
        claims.append((0.8 <= growth <= 1.25,
                       f"Fig 13b: sync {sync_a / 1e3:.2f} -> "
                       f"{sync_b / 1e3:.2f} ms from 2^{a:g} to 2^{b:g} "
                       f"keys grows linearly ({growth:.2f}x the size "
                       f"ratio)"))
    return claims


def verdict_fig14(rows):
    sweep = sorted(rows, key=lambda r: r["batch"])
    sync_wins = [r["batch"] for r in sweep if r["sync_us"] < r["async_us"]]
    last = sync_wins[-1] if sync_wins else None
    return [(last is not None and last < sweep[-1]["batch"],
             f"a crossover: sync wins at batch "
             f"{'/'.join(f'{b / 1024:.0f}K' for b in sync_wins) or 'none'}, "
             f"async at every larger batch")]


def verdict_fig15(rows):
    claims = []
    for r in by_size(rows):
        share = 100 * r["transfer_us"] / (r["l_build_us"] + r["i_build_us"] +
                                          r["transfer_us"])
        claims.append((3 <= share <= 7,
                       f"2^{r['tuples_log2']:g}: transfer {share:.1f}% of "
                       f"the rebuild (3-7%)"))
    return claims


def verdict_fig16(rows):
    wide = [r for r in rows if r["width"] == "64-bit"]
    return [(bool(wide), "the report has 64-bit rows")] + [
        (r["best_ratio"] > 1,
         f"64-bit 2^{r['tuples_log2']:g} keys: best HB / best CPU "
         f"{r['best_ratio']:.2f}x > 1") for r in wide]


def verdict_fig17(rows):
    r = by_label(rows, "matches")[(1,)]
    return [(r["best_ratio"] > 1,
             f"1 match: best HB / best CPU {r['best_ratio']:.2f}x > 1")]


def verdict_fig18(rows):
    return [(trees(rows) == ["implicit", "regular"],
             "the report has an implicit and a regular row")] + [
        (r["lb_gain"] >= 1.0,
         f"{r['tree']}: load-balanced / plain HB {r['lb_gain']:.2f}x >= 1")
        for r in rows]


def verdict_fig19(rows):
    # The HB layout gives up one key per inner node (fanout 8 vs 9): the
    # CPU layout is slightly ahead, strictly where the HB tree is taller.
    claims = []
    for r in by_size(rows):
        ratio = r["cpu_impl_mqps"] / r["hb_impl_mqps"]
        taller = r["hb_height"] > r["cpu_height"]
        ahead = ratio > 1 if taller else ratio >= 1
        claims.append((ahead and ratio <= 1.2,
                       f"2^{r['tuples_log2']:g}: CPU implicit {ratio:.2f}x "
                       f"the HB layout (heights {r['cpu_height']:g} / "
                       f"{r['hb_height']:g}), {'>' if taller else '>='} 1x "
                       f"and <= 1.2x"))
    return claims


def verdict_fig20(rows):
    r = {row["depth"]: row for row in rows}
    depths = sorted(r)
    mqps = [r[d]["mqps"] for d in depths]
    latency = [r[d]["latency_us"] for d in depths]
    gain16 = r[16]["mqps"] / r[1]["mqps"]
    beyond = r[32]["mqps"] / r[16]["mqps"]
    lat16 = r[16]["latency_us"] / r[1]["latency_us"]
    return [(rising(mqps), "throughput rises with the depth"),
            (2.0 <= gain16 <= 3.0, f"depth 16: {gain16:.2f}x ~ 2.5x depth 1"),
            (beyond <= 1.1, f"little beyond 16 (+{beyond - 1:.1%} at 32)"),
            (rising(latency), "latency rises with the depth"),
            (4.5 <= lat16 <= 7.5, f"depth 16 latency {lat16:.1f}x ~ 6x")]


def verdict_fig21(rows):
    sweep = sorted(rows, key=lambda r: r["update_pct"])
    ratios = [r["sync_mqps"] / r["async_mqps"] for r in sweep]
    return [(all(a >= b for a, b in zip(ratios, ratios[1:])),
             "sync / async throughput never rises with the update share"),
            (ratios[-1] < 1,
             f"at {sweep[-1]['update_pct']:g}% updates sync runs at "
             f"{ratios[-1]:.2f}x async")]


def verdict_ext_hb_fast(rows):
    r = by_label(rows, "tree")
    hb, fast = r[("hb-implicit",)], r[("hb-fast",)]
    return [(hb["mqps"] > fast["mqps"],
             f"HB+-tree {hb['mqps']:.1f} > HB-FAST {fast['mqps']:.1f} MQPS"),
            (fast["tx_per_warp_level"] > hb["tx_per_warp_level"],
             f"HB-FAST {fast['tx_per_warp_level']:.2f} > HB+-tree "
             f"{hb['tx_per_warp_level']:.2f} transactions/warp/level")]


def verdict_ext_gpu_build(rows):
    return [(r["gpu_assist_us"] < r["cpu_upload_us"] and r["saved_mb"] > 0,
             f"2^{r['tuples_log2']:g}: device build "
             f"{r['cpu_upload_us'] / r['gpu_assist_us']:.2f}x faster, "
             f"{r['saved_mb']:.1f} MB less PCIe traffic")
            for r in by_size(rows)]


PAPER_VERDICTS = {
    "fig07_page_config": verdict_fig07,
    "fig08_node_search": verdict_fig08,
    "fig09_fast_compare": verdict_fig09,
    "fig10_bucket_strategies": verdict_fig10,
    "fig11_bucket_size": verdict_fig11,
    "fig12_distributions": verdict_fig12,
    "fig13_update_methods": verdict_fig13,
    "fig14_batch_size": verdict_fig14,
    "fig15_implicit_update": verdict_fig15,
    "fig16_throughput": verdict_fig16,
    "fig17_range_queries": verdict_fig17,
    "fig18_load_balancing": verdict_fig18,
    "fig19_cpu_lookup": verdict_fig19,
    "fig20_swp_depth": verdict_fig20,
    "fig21_mixed_workload": verdict_fig21,
    "ext_hb_fast": verdict_ext_hb_fast,
    "ext_gpu_build": verdict_ext_gpu_build,
}


# Reports whose rows carry the pipeline's sorted_buckets.
SORT_REPORTING = ("fig10_bucket_strategies", "fig11_bucket_size",
                  "fig12_distributions")


def unsorted_on_m1(rows):
    sorted_rows = [r for r in rows if r["sorted_buckets"] != 0]
    return [(not sorted_rows,
             f"M1: {len(sorted_rows)} of {len(rows)} rows sorted a bucket "
             f"(CPU-bound runs must not)")]


def sorted_on_m2(rows):
    # Fig 18's regular tree on M2 is the gated run on the sorting side of
    # the pipeline's order decision (its GPU stage, not the CPU, is slow).
    r = by_label(rows, "tree")[("regular",)]
    return [(r["hb_sorted"] > 0 and r["hb_lb_sorted"] > 0,
             f"M2: regular plain / load-balanced HB sorted "
             f"{r['hb_sorted']:.0f} / {r['hb_lb_sorted']:.0f} buckets "
             f"(kernel-bound runs must)")]


def check_paper_verdicts(path, doc):
    verdict = PAPER_VERDICTS.get(doc.get("bench"))
    if verdict is None:
        fail(path, f"no paper verdict for bench {doc.get('bench')!r} "
                   f"(expected one of {sorted(PAPER_VERDICTS)})")
    try:
        claims = verdict(doc["rows"])
        platform = doc.get("meta", {}).get("platform")
        if doc["bench"] in SORT_REPORTING and platform == "M1":
            claims += unsorted_on_m1(doc["rows"])
        if doc["bench"] == "fig18_load_balancing" and platform == "M2":
            claims += sorted_on_m2(doc["rows"])
    except KeyError as e:
        fail(path, f"the verdict reads a row or column the report lacks: "
                   f"{e}")
    for holds, claim in claims:
        print(f"  {'holds ' if holds else 'BROKEN'} {doc['bench']}: {claim}")
    broken = [claim for holds, claim in claims if not holds]
    if broken:
        fail(path, f"{len(broken)} paper verdict(s) broken: "
                   + "; ".join(broken))
    return f"{len(claims)} paper verdict(s) hold"


def validate_file(path, args, trace):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"cannot parse: {e}")
    schema = doc.get("schema")
    if schema == "hbtree.metrics.v1":
        detail = validate_metrics_v1(path, doc)
        counters = doc["counters"]
    elif schema == "hbtree.bench.v1":
        detail = validate_bench_v1(path, doc)
        counters = doc.get("metrics", {}).get("counters", {})
        if args.require_heat and "heat" not in doc:
            fail(path, "bench report has no heat section (--require-heat; "
                       "was the binary built with HBTREE_OBS_TRACING?)")
        if args.paper_verdicts:
            detail += "; " + check_paper_verdicts(path, doc)
    else:
        fail(path, f"unknown schema: {schema!r}")
    for name in args.require_counter:
        if name not in counters:
            fail(path, f"required counter {name} is absent")
    if args.require_exemplars:
        check_required_exemplars(path, doc, args.require_exemplars)
    if trace is not None:
        resolved, skipped = check_exemplars_against_trace(
            path, doc, trace[0], trace[1])
        detail += f"; {resolved} exemplar(s) resolved in trace"
        if skipped:
            detail += f", {skipped} from other sessions skipped"
        if args.require_exemplars and resolved == 0:
            fail(path, "no exemplar resolved against the trace (all from "
                       "other sessions?)")
    print(f"{path}: OK ({schema}; {detail})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="fail unless this counter exists in the "
                             "(embedded) metrics snapshot")
    parser.add_argument("--require-exemplars", action="append", default=[],
                        metavar="NAME",
                        help="fail unless this histogram carries at least "
                             "one tail exemplar (>= 80%% of its p99)")
    parser.add_argument("--require-heat", action="store_true",
                        help="fail any bench report that lacks a heat "
                             "section (keyspace heatmap + level traffic + "
                             "pool temperatures)")
    parser.add_argument("--paper-verdicts", action="store_true",
                        help="fail any report that is not a paper-figure "
                             "report upholding its figure's verdict")
    parser.add_argument("--trace", metavar="TRACE_JSON",
                        help="Chrome trace export to resolve exemplar "
                             "trace_id/span_id pairs against")
    args = parser.parse_args()
    status = 0
    trace = None
    if args.trace:
        try:
            trace = load_trace_spans(args.trace)
        except ValidationError as e:
            print(f"FAIL {e}", file=sys.stderr)
            return 1
    for path in args.files:
        try:
            validate_file(path, args, trace)
        except ValidationError as e:
            print(f"FAIL {e}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
