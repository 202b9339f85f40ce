#!/usr/bin/env python3
"""Builds and runs the NVCaracal benchmark.

    python3 nvcbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The engine and the benchmark program are built
from source into $CARGO_TARGET_DIR (default .bench_build), then the program runs
the workload. With --trace 0 it prints every end-to-end metric, with
--trace 1 every per-layer metric and the path of the Chrome trace it wrote.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when a correctness
check fails or the benchmark cannot be built or run.

--workload all (the default) runs every workload in turn and ends with one
JSON object whose metric names are prefixed with the workload name.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["smallbank_hot", "ycsb_service", "tpcc_recover", "kv_sharded"]
RUN_TIMEOUT_S = 170

PACKAGE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE)


def log(message):
    print(message, file=sys.stderr, flush=True)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def build(build_dir):
    env = dict(os.environ)
    # Keep the compiler's temporary files inside the checkout.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = [
        ["cmake", "-S", PACKAGE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "nvcbench", "-j4"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("nvcbench: build step failed: " + " ".join(step))
            return False
    return True


def run_workload(binary, build_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (workload, args.seed))
        cmd += ["--trace-out", trace_path]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("nvcbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None, 2
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("nvcbench: %s printed no result (exit %d)" % (workload, done.returncode))
        sys.stderr.write(done.stdout)
        return None, done.returncode or 2
    print("\n".join(lines[:-1]))
    if args.trace:
        log("nvcbench: Chrome trace written to " + trace_path)
    declared = declared_metrics(args.trace)
    if declared is not None:
        missing = [name for name in declared if name not in result["metrics"]]
        if missing:
            log("nvcbench: %s did not report %s" % (workload, ", ".join(missing)))
            return None, 3
        result["metrics"] = {name: result["metrics"][name] for name in declared}
    return result, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("nvcbench: no engine sources under %s; run from a full checkout" % ROOT)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "nvcbench")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    worst_exit = 0
    for workload in workloads:
        result, code = run_workload(binary, build_dir, workload, args)
        if result is None:
            return code
        results[workload] = result
        worst_exit = max(worst_exit, code)

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return worst_exit
    print("\n%-14s %-40s %18s %s" % ("workload", "metric", "value", "unit"))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, result in results.items():
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print("%-14s %-40s %18.6g %s" % (workload, name, metric["value"], metric["unit"]))
            combined["metrics"][workload + "." + name] = metric
        if not result["correct"]:
            print("%-14s FAILED a correctness check" % workload)
    print(json.dumps(combined))
    return worst_exit


if __name__ == "__main__":
    sys.exit(main())
