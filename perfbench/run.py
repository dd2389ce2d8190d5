#!/usr/bin/env python3
"""AutoSecKit repository benchmark.

Builds the workload program (perfbench/CMakeLists.txt, which compiles the
library modules it drives from ../src) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and traces to .../perfbench/traces.

Every measurement runs in a fresh process, so lazily built state (p256
tables, warm caches) is paid inside that workload's set-up and peak memory
is never shared between workloads:

  --trace 0  one process measures the timed window; it and two more
             set-up-only processes each time their set-up, and setup_s is
             the median of the three. Prints every end_to_end metric.
  --trace 1  one untraced and one traced process; the traced one reports
             the per-layer metrics and writes its spans. trace.overhead_ratio
             is the traced wall_s_per_sim_s over the untraced one.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Exit status is 0 only when every process passed its correctness
gates; on a build or usage failure nothing is printed to stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_SAMPLES = 3
# Every workload process of one invocation must end within this many seconds
# of the build finishing; a process still running then is killed.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_workload")


def run_process(binary, args, deadline, extra=()):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload process timed out: " + " ".join(cmd))
    lines = p.stdout.strip().splitlines()
    if not lines or p.returncode not in (0, 1):
        fail(f"workload process failed (exit {p.returncode}): " + " ".join(cmd))
    report = json.loads(lines[-1])
    report["correct"] = report["correct"] and p.returncode == 0
    return report


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace == 0:
        main_run = run_process(binary, args, deadline)
        setups = [main_run["setup_s"]]
        runs = [main_run]
        for _ in range(SETUP_SAMPLES - 1):
            r = run_process(binary, args, deadline, ["--setup-only"])
            setups.append(r["setup_s"])
            runs.append(r)
        measured = dict(main_run["metrics"])
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        wanted = spec["end_to_end"]
    else:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        untraced = run_process(binary, args, deadline)
        traced = run_process(binary, args, deadline,
                             ["--trace", "1", "--trace-out", trace_out])
        runs = [untraced, traced]
        measured = dict(traced["metrics"])
        measured["trace.overhead_ratio"] = {
            "value": traced["metrics"]["wall_s_per_sim_s"]["value"]
            / untraced["metrics"]["wall_s_per_sim_s"]["value"],
            "unit": "ratio"}
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and args.trace == 1:
            # A per-layer metric of a layer this workload does not exercise.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            fail(f"workload did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = got

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
