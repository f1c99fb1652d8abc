#!/usr/bin/env python3
"""Asserts the heat section actually attributes injected workload skew.

Takes hbtree.bench.v1 reports from ycsb_workloads runs of the zipfian,
hotspot, and uniform scenarios and checks the keyspace heatmap against
what each key chooser injected (meta.chooser selects the check):

  zipfian  — unscrambled zipf(0.99) ranks map onto the sorted key order,
             so the modelled hot mass of the first 10% of keys is the
             generalized harmonic ratio H_m(theta)/H_n(theta); the top-K
             ranges overlapping that prefix must attribute >= 90% of it,
             and the top range must be flagged hot.
  hotspot  — the chooser sends hot_op_fraction (0.9, as checked into the
             scenario matrix) of ops to the first hot_key_fraction (0.1)
             of keys; same >= 90% attribution bar.
  uniform  — the negative control: flat popularity sits ~4x under the
             hot threshold, so no range may be flagged hot.

Every report must also show GPU kernel launches in heat.kernel: the
serve run's reads went through the device, so an empty kernel block
means the pipeline stopped reporting into the heat sink.
(validate_metrics.py --require-heat checks the block's reconciliation.)

The prefix boundary assumes the sequential bootstrap layout the workload
harness uses (key of record i is (i+1) * 8, see workload/dataset.cc);
meta.n supplies the record count.

Usage: scripts/check_heat.py REPORT.json [REPORT.json ...]
"""

import json
import math
import sys

# Mirrors the checked-in scenario matrix (src/workload/spec.cc) and the
# fixed-point zipf default (workload/key_chooser.h).
ZIPF_THETA = 0.99
HOT_KEY_FRACTION = 0.1
HOT_OP_FRACTION = 0.9
ATTRIBUTION_BAR = 0.9
KEY_STRIDE = 8  # sequential dataset: key of record i is (i + 1) * stride


def harmonic(n, theta):
    return sum(i ** -theta for i in range(1, n + 1))


def hot_prefix(meta):
    """(record count, boundary key) of the injected hot prefix."""
    n = int(meta["n"])
    hot_keys = math.ceil(HOT_KEY_FRACTION * n)
    return n, hot_keys, KEY_STRIDE * hot_keys


def attributed_count(heat, boundary_key):
    """Sketched accesses the top-K ranges attribute to the hot prefix.

    A bin-width range straddling the boundary counts fully — the sketch
    resolution, not the attribution, owns that rounding.
    """
    return sum(r["count"] for r in heat["keyspace"]["ranges"]
               if r["lo"] <= boundary_key)


def check_skewed(path, doc, expected_share, label):
    heat = doc["heat"]
    total = heat["keyspace"]["total"]
    if total == 0:
        print(f"FAIL {path}: heat section recorded no accesses",
              file=sys.stderr)
        return False
    _, hot_keys, boundary_key = hot_prefix(doc["meta"])
    expected = expected_share * total
    attributed = attributed_count(heat, boundary_key)
    ratio = attributed / expected if expected > 0 else 0.0
    ok = ratio >= ATTRIBUTION_BAR
    top = heat["keyspace"]["ranges"][0] if heat["keyspace"]["ranges"] else None
    if ok and (top is None or not top["hot"]):
        print(f"FAIL {path}: skewed scenario but the top range is not "
              f"flagged hot", file=sys.stderr)
        return False
    line = (f"{label}: modelled hot mass {expected_share:.3f} of {total} "
            f"accesses in the first {hot_keys} keys (<= key {boundary_key}); "
            f"top-K attributes {attributed} ({ratio:.1%} of expected, "
            f"bar {ATTRIBUTION_BAR:.0%})")
    if ok:
        print(f"{path}: OK ({line})")
    else:
        print(f"FAIL {path}: {line}", file=sys.stderr)
    return ok


def check_zipfian(path, doc):
    n, hot_keys, _ = hot_prefix(doc["meta"])
    share = harmonic(hot_keys, ZIPF_THETA) / harmonic(n, ZIPF_THETA)
    return check_skewed(path, doc, share, "zipfian")


def check_hotspot(path, doc):
    return check_skewed(path, doc, HOT_OP_FRACTION, "hotspot")


def check_uniform(path, doc):
    heat = doc["heat"]
    if heat["keyspace"]["total"] == 0:
        print(f"FAIL {path}: heat section recorded no accesses",
              file=sys.stderr)
        return False
    hot = [r for r in heat["keyspace"]["ranges"] if r["hot"]]
    if hot:
        print(f"FAIL {path}: uniform workload flagged {len(hot)} hot "
              f"range(s), e.g. [{hot[0]['lo']}, {hot[0]['hi']}] at share "
              f"{hot[0]['share']:.4f} (threshold "
              f"{heat['keyspace']['hot_threshold_share']:.4f}) — a false "
              f"hot range", file=sys.stderr)
        return False
    top_share = (heat["keyspace"]["ranges"][0]["share"]
                 if heat["keyspace"]["ranges"] else 0.0)
    print(f"{path}: OK (uniform control: no hot range; top share "
          f"{top_share:.4f} vs threshold "
          f"{heat['keyspace']['hot_threshold_share']:.4f})")
    return True


def check_kernel(path, heat):
    launches = heat.get("kernel", {}).get("launches", 0)
    if launches <= 0:
        print(f"FAIL {path}: heat.kernel records no kernel launches",
              file=sys.stderr)
        return False
    return True


CHECKS = {
    "zipfian": check_zipfian,
    "hotspot": check_hotspot,
    "uniform": check_uniform,
}


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL {path}: cannot parse: {e}", file=sys.stderr)
        return False
    if "heat" not in doc:
        print(f"FAIL {path}: no heat section (built without "
              f"HBTREE_OBS_TRACING?)", file=sys.stderr)
        return False
    chooser = doc.get("meta", {}).get("chooser")
    check = CHECKS.get(chooser)
    if check is None:
        print(f"FAIL {path}: no attribution check for chooser "
              f"{chooser!r} (expected one of {sorted(CHECKS)})",
              file=sys.stderr)
        return False
    ok = check(path, doc)
    return check_kernel(path, doc["heat"]) and ok


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for path in sys.argv[1:]:
        ok = check_file(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
