#!/usr/bin/env python3
"""Known-defect reproducer: revert-and-replay recovery with two workers.

    python3 nvcbench/test_pindex_replay.py

Runs tpcc_recover with two engine workers (the benchmark runs one) for a
fixed number of epochs. With two workers, TPC-C's order-id counters make the
replay of a crashed epoch draw other ids than the crashed run did, and the
engine's revert step does not clear the persistent-index slots the crashed
epoch added, so ValidatePersistentIndex reports stale live slots after each
Recover(). See "Defects found while sizing" in NOTES.md.

This is a strict expected failure. It prints XFAIL and exits 0 while the
defect reproduces: only the persistent-index check fails. It prints XPASS
and exits 1 once every check passes, so that whoever fixes the engine moves
tpcc_recover back to two workers. Any other failure also exits 1.
"""

import os
import subprocess
import sys

sys.dont_write_bytecode = True  # importing run.py must not leave files behind
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EPOCHS = 20
SEED = 7
WORKERS = 2
DEFECT_CHECK = "CHECK FAILED: persistent index valid "


def main():
    build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not run.build(build_dir):
        return 2
    cmd = [os.path.join(build_dir, "nvcbench"), "--workload", "tpcc_recover",
           "--seed", str(SEED), "--seconds", "1", "--epochs", str(EPOCHS),
           "--tpcc-workers", str(WORKERS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    failures = [line for line in done.stdout.split("\n") if line.startswith("CHECK FAILED")]
    for line in failures:
        print(line)
    if done.returncode == 0 and not failures:
        print("XPASS: tpcc_recover passes every check with %d workers; the defect is "
              "fixed, so run the benchmark's tpcc_recover with %d workers again"
              % (WORKERS, WORKERS))
        return 1
    if failures and all(line.startswith(DEFECT_CHECK) for line in failures):
        print("XFAIL: known defect reproduced: stale persistent-index slots after "
              "revert-and-replay recovery with %d workers" % WORKERS)
        return 0
    print("FAIL: tpcc_recover with %d workers failed otherwise (exit %d)"
          % (WORKERS, done.returncode))
    return 1


if __name__ == "__main__":
    sys.exit(main())
