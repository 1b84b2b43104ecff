#!/usr/bin/env python3
"""Steadiness report for the benchmark's end-to-end metrics.

    python3 trainbench/steadiness.py dist-hybrid [compute-bound] --runs 10

Runs the workload --runs times through run.py at BENCHMARK.json's
run_seconds, with seeds --first-seed, --first-seed + 1, ..., each run
followed by one of the second workload when one is given (it gets its own
report). For every end-to-end metric it prints the median, the quartiles
as statistics.quantiles(values, n=4) gives them, the spread
(Q3 - Q1) / median, the range, and the metric's bound from BENCHMARK.json.

Every metric, setup_s included, is judged by one rule: its spread must be
within its bound ("within bound"), and "steady" marks a spread below a
third of the bound, the margin the benchmark aims for. The exit code is 0
only when every metric of every workload is within its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 or not result.get("correct"):
        print("run failed: %s seed %d (exit %d)" % (workload, seed,
                                                   proc.returncode),
              file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def report(workload, runs, bounds):
    print("\n%s: %d runs" % (workload, len(runs)))
    print("%-18s %12s %12s %12s %8s %12s %12s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "min", "max", "range",
        "bound", "verdict"))
    within = True
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        span = (max(values) - min(values)) / median if median else 0.0
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            within = False
        print("%-18s %12.6g %12.6g %12.6g %7.2f%% %12.6g %12.6g %7.2f%% "
              "%5.0f%%  %s" % (name, median, q1, q3, 100 * spread,
                               min(values), max(values), 100 * span,
                               100 * bound, verdict))
    print("values: " + json.dumps({n: [r[n] for r in runs] for n in bounds}))
    return within


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("other", nargs="?")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [args.workload] + ([args.other] if args.other else [])
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            metrics = run_once(w, args.first_seed + i)
            if metrics is not None:
                results[w].append(metrics)
    within = True
    for w in workloads:
        if len(results[w]) < 4:
            print("\n%s: too few successful runs" % w)
            within = False
            continue
        within = report(w, results[w], bounds) and within
    sys.exit(0 if within else 1)


if __name__ == "__main__":
    main()
