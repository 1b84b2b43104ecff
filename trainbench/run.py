#!/usr/bin/env python3
"""End-to-end training benchmark for gnndm (see README.md beside this file).

    python3 trainbench/run.py --workload dist-hybrid --seed 1 --trace 0

Run from the root of a gnndm checkout. It builds the benchmark program and
the JSON linter from source into .bench_build/, generates the seeded input
there, runs the workload in one process for --seconds (by default the
run_seconds of BENCHMARK.json) and prints the result JSON object as the
last line of standard output:

    {"correct": true, "attempted": 252, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced replay, whose spans are also written as
Chrome-trace JSON to .bench_build/traces/<workload>.json. The line before
the result is a provenance record (seed, nproc, run_meta, samples). The
exit code is 0 only when every output check passed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("compute-bound", "dist-hybrid")
BUILD_TIMEOUT_S = 700   # only the first run in a checkout compiles
RUN_BUDGET_S = 170      # every run ends within 180 s


def call(cmd, timeout, capture=False, log=None):
    """Runs cmd in its own process group; kills the group on timeout.

    Temporary files (the compiler's among them) go under .bench_build/, so
    the benchmark writes nothing outside its checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        env=dict(os.environ, TMPDIR=tmp),
        stdout=subprocess.PIPE if capture else log,
        stderr=log if log is not None else None, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def fail(message):
    print("trainbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds incrementally; returns the binaries.

    The configure step runs every time: it is cheap on a warm cache, and
    it refreshes the commit that run_meta names, which is resolved at
    configure time."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for step in (["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"],
                     ["cmake", "--build", BUILD, "--target", "trainbench",
                      "gnndm_jsonlint_cli", "-j", jobs]):
            try:
                code, _ = call(step, deadline - time.monotonic(), log=log)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)
    return (os.path.join(BUILD, "trainbench"),
            os.path.join(BUILD, "gnndm", "tools", "gnndm_jsonlint"))


def load_spec():
    """BENCHMARK.json: the run length and the declared metrics."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    trainbench, jsonlint = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    data_dir = os.path.join(BUILD, "data")
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    data = os.path.join(data_dir, "%s-%d.gnds" % (args.workload, args.seed))
    trace_out = os.path.join(trace_dir, args.workload + ".json")
    common = ["--workload=" + args.workload, "--seed=%d" % args.seed]
    try:
        # The input is generated in its own process, before anything is
        # timed, so the measured process sees only the file.
        code, _ = call([trainbench, "gen", "--out=" + data] + common,
                       deadline - time.monotonic())
        if code != 0:
            fail("input generation failed")
        cmd = [trainbench, "trace" if args.trace else "run",
               "--input=" + data, "--seconds=%d" % args.seconds] + common
        if args.trace:
            cmd.append("--trace_out=" + trace_out)
        code, out = call(cmd, deadline - time.monotonic(), capture=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_BUDGET_S)
    finally:
        if os.path.exists(data):
            os.remove(data)

    lines = out.strip().splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("the benchmark program exited with %d and no result" % code)
    problems = list(record["record"].get("check_failures", []))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        problems.append("metrics differ from BENCHMARK.json: %s vs %s"
                        % (sorted(reported.items()), sorted(declared.items())))
    if args.trace:
        lint_code, _ = call([jsonlint, trace_out],
                            deadline - time.monotonic(), capture=True)
        if lint_code != 0:
            problems.append("gnndm_jsonlint rejects " + trace_out)
    if code != 0 and not problems:
        problems.append("the benchmark program exited with %d" % code)
    if problems:
        result["correct"] = False
        for p in problems:
            print("trainbench: check failed: " + p, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
