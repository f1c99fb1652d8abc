#!/usr/bin/env python3
"""hbbench runner: builds the benchmark, runs workloads, compares result sets.

Run from the repository root:

  python3 hbbench/hbbench.py run --workload=uniform --seed=1
      One run; prints every end-to-end metric with its unit, then one JSON
      line {"correct", "attempted", "failed", "metrics"}.
  python3 hbbench/hbbench.py run --workload=zipf --seed=1 --traced
      (same as --trace=1) Runs hbbench_traced for the per-layer metrics,
      layer self times and the serving stage waterfall, then the untraced
      binary on the same seed to report the tracing overhead. Add
      --trace-dir=DIR to keep each run's spans as Chrome trace JSON.
  python3 hbbench/hbbench.py run --reps=10 --seed=100 --out=a.json
      Ten runs of every workload, alternating workloads, seeds 100..109;
      prints each metric's median and quartiles and saves every run.
  python3 hbbench/hbbench.py compare a.json b.json
      One row per (workload, metric): better, worse, within bound, or
      unresolved, using the bounds and directions in BENCHMARK.json.
      model_* metrics are incomparable when the model fingerprints differ.
      Exits 1 if any metric is worse, 2 if any is incomparable.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the root.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULT_PREFIX = "HBBENCH_RESULT "
RUN_TIMEOUT_S = 170


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds both binaries; returns the build dir."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "hbbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "hbbench", "hbbench_traced"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("build failed:\n" + "\n".join(tail) + "\n")
                sys.exit(1)
    return out


def run_binary(out, traced, workload, seed, seconds, trace_dir=None):
    """Runs one workload; echoes the report and returns the parsed result."""
    binary = out / ("hbbench_traced" if traced else "hbbench")
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if traced and trace_dir:
        path = pathlib.Path(trace_dir) / f"trace_{workload}_{seed}.json"
        cmd.append(f"--trace_out={path.resolve()}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{binary.name} {workload} timed out\n")
        sys.exit(1)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(f"{binary.name} {workload} seed {seed} failed "
                         f"(exit {proc.returncode})\n")
        sys.exit(1)
    result["traced"] = traced
    return result


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def value(run, name):
    return run["metrics"][name]["value"]


def add_overhead(traced, untraced):
    """Tracing overhead: the traced run's host-clock numbers against the
    untraced run's on the same seed (positive = the traced run is slower)."""
    m = traced["metrics"]
    m["trace.overhead.wall_ops_frac"] = {
        "value": 1 - value(traced, "hybrid.wall_ops_per_s")
        / value(untraced, "hybrid.wall_ops_per_s"),
        "unit": "ratio"}
    m["trace.overhead.read_p50_frac"] = {
        "value": value(traced, "read_p50_ms") / value(untraced, "read_p50_ms")
        - 1,
        "unit": "ratio"}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_run(args):
    spec = load_spec()
    traced = args.traced or args.trace == 1
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    out = build()
    runs = []
    for rep in range(args.reps):
        for workload in workloads:
            seed = args.seed + rep
            run = run_binary(out, traced, workload, seed, args.seconds,
                             args.trace_dir)
            if traced:
                add_overhead(run, run_binary(out, False, workload, seed,
                                             args.seconds))
            missing = [n for n in names if n not in run["metrics"]]
            if missing:
                sys.stderr.write(f"{workload}: metrics missing: {missing}\n")
                sys.exit(1)
            runs.append(run)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"schema": "hbbench.results.v1", "runs": runs}, f,
                      indent=1)

    print(f"\n{'workload':10} {'metric':42} {'median':>14} {'q1':>14} "
          f"{'q3':>14}  unit")
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for name in names:
            q1, med, q3 = quartiles([value(r, name) for r in mine])
            summary[name] = med
            print(f"{workload:10} {name:42} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g}  {units[name]}")
    # The result line: the last workload's medians (a single run's values
    # when one workload and one repetition are asked for), correctness and
    # op counts over every run made.
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {n: {"value": summary[n], "unit": units[n]}
                    for n in names},
    }))
    return 0


def verdict(a, b, bound, better):
    """Classifies B against A for one metric (lists of per-run values)."""
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    spread = max((q3 - q1) / med for q1, med, q3 in (quartiles(a),
                                                      quartiles(b)))
    sign = 1 if better == "higher" else -1
    change = sign * (med_b - med_a) / med_a  # positive = B is better
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better", change, spread
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "worse", change, spread
        return "unresolved", change, spread
    if change < -bound:
        return "worse", change, spread
    if change > bound:
        return "better", change, spread
    return "within bound", change, spread


def cmd_compare(args):
    spec = load_spec()
    with open(args.a) as f:
        runs_a = json.load(f)["runs"]
    with open(args.b) as f:
        runs_b = json.load(f)["runs"]
    status = 0
    print(f"{'workload':10} {'metric':26} {'A median':>13} {'B median':>13} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        a = [r for r in runs_a if r["workload"] == w["name"]]
        b = [r for r in runs_b if r["workload"] == w["name"]]
        if not a or not b:
            continue
        # Model metrics compare only when both sides used the same
        # instrument: equal model constants, and equal calibrated rates on
        # every seed both sides ran.
        prints_a = {r["seed"]: r["fingerprint"] for r in a}
        same_model = (
            {r["model_config"] for r in a} == {r["model_config"] for r in b}
            and all(prints_a[r["seed"]] == r["fingerprint"]
                    for r in b if r["seed"] in prints_a))
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [value(r, name) for r in a]
            vb = [value(r, name) for r in b]
            _, med_a, _ = quartiles(va)
            _, med_b, _ = quartiles(vb)
            if name.startswith("model_") and not same_model:
                result, change, spread = "incomparable", 0.0, 0.0
                status = max(status, 2)
            else:
                result, change, spread = verdict(va, vb, m["bound"],
                                                 m["better"])
            if result == "worse":
                status = max(status, 1)
            print(f"{w['name']:10} {name:26} {med_a:13.6g} {med_b:13.6g} "
                  f"{change:+8.2%} {spread:7.2%} {m['bound']:6.0%}  {result}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="build, run workloads, print metrics")
    run.add_argument("--workload", help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=1,
                     help="seed of the first repetition (then +1 per rep)")
    run.add_argument("--seconds", type=float,
                     help="measuring budget per run (default: run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--traced", action="store_true",
                     help="same as --trace=1")
    run.add_argument("--trace-dir",
                     help="traced runs write Chrome trace JSON here (about "
                     "100 MB per run)")
    run.add_argument("--reps", type=int, default=1)
    run.add_argument("--out", help="save every run as JSON (for compare)")
    compare = sub.add_parser("compare", help="compare two saved result sets")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args()
    if args.command == "run":
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
