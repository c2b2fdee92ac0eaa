#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs one workload (or all of them) repeatedly, each run with another seed,
and prints for every end-to-end metric the median, the first and third
quartiles, the spread (interquartile distance over the median) and that
spread as a fraction of the metric's bound. With --sets 2 it runs a second,
independent set of seeds and also prints how far the second median moved
against the first, as a fraction of the bound.

Exit status 1 when a run fails or is incorrect, when a spread other than
setup_s's exceeds its bound, when a second median is worse than the first
by more than the bound, or when the share of failed operations differs
between runs. The `suggest` column is three times the largest spread seen,
rounded up to a hundredth and kept within [0.02, 0.25]: a bound the metric
meets with the margin the benchmark aims for.

    python3 perfbench/steady.py --workload serve-sf1024 --runs 5
    python3 perfbench/steady.py --all --runs 10 --sets 2
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    stamp = json.loads(lines[-2]).get("stamp", {}) if len(lines) > 1 else {}
    return json.loads(lines[-1]), stamp, took


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_set(spec, workload, seeds, trace):
    results = []
    for seed in seeds:
        res, stamp, took = run_once(spec, workload, seed, trace)
        results.append(res)
        print(f"  seed {seed:>4}: {took:6.1f} s, steal {stamp.get('steal_s', 0):.2f} s, "
              f"correct {res['correct']}, attempted {res['attempted']}, failed {res['failed']}",
              flush=True)
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]] if args.all else args.workload
    if not names:
        ap.error("name a --workload or pass --all")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    largest = {}
    for name in names:
        print(f"{name}: {args.sets} x {args.runs} runs of {spec['run_seconds']} s", flush=True)
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            sets.append(run_set(spec, name, range(first, first + args.runs), 0))
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if any(not r["correct"] for runs in sets for r in runs) or len(shares) > 1:
            print(f"  FAIL: incorrect runs or failed shares {sorted(shares)}")
            ok = False
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'/bound':>7} {'shift':>7} {'suggest':>7}")
        for metric, m in bounds.items():
            spreads, medians = [], []
            for runs in sets:
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spreads.append((q3 - q1) / med)
                medians.append(med)
            q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in sets[0]])
            spread = max(spreads)
            largest[metric] = max(largest.get(metric, 0.0), spread)
            worse = 0.0
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
            flag = ""
            if spread > m["bound"] and metric != "setup_s":
                flag, ok = " SPREAD", False
            if worse > m["bound"]:
                flag, ok = flag + " SHIFT", False
            suggest = min(0.25, max(0.02, math.ceil(300 * spread) / 100))
            print(f"  {metric:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{spread / m['bound']:>7.3f} {worse / m['bound']:>7.3f} {suggest:>7.2f}{flag}")
    if len(names) > 1:
        print("largest spread over all workloads, as a fraction of the bound:")
        for metric, spread in largest.items():
            print(f"  {metric:<16} {spread / bounds[metric]['bound']:.3f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
