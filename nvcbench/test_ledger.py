#!/usr/bin/env python3
"""Ledger determinism test for the benchmark.

    python3 nvcbench/test_ledger.py

On smallbank_hot (one worker, no timers) the device ledger is a pure
function of the seeded stream, so a fixed number of epochs must report the
same nvm_write_bytes_per_txn, sim.persisted_lines_per_txn and
sim.fences_per_epoch on every run, to the last digit. Builds the program
like run.py, runs it twice per mode, and exits non-zero on any difference
or failed correctness check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # importing run.py must not leave files behind
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EPOCHS = 24
SEED = 5
CHECKED = {0: ["nvm_write_bytes_per_txn"],
           1: ["sim.persisted_lines_per_txn", "sim.fences_per_epoch"]}


def measure(binary, trace):
    cmd = [binary, "--workload", "smallbank_hot", "--seed", str(SEED), "--seconds", "1",
           "--epochs", str(EPOCHS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit("FAIL: smallbank_hot --trace %d failed its correctness checks" % trace)
    return {name: result["metrics"][name]["value"] for name in CHECKED[trace]}


def main():
    build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not run.build(build_dir):
        return 2
    binary = os.path.join(build_dir, "nvcbench")
    failures = 0
    for trace in (0, 1):
        first, second = measure(binary, trace), measure(binary, trace)
        for name in CHECKED[trace]:
            same = first[name] == second[name]
            failures += 0 if same else 1
            print("%-30s %-24r %-24r %s" % (name, first[name], second[name],
                                             "ok" if same else "DIFFERS"))
    print("PASS" if failures == 0 else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
