#!/usr/bin/env python3
"""Builds and runs the restart-and-dashboard benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 40 --trace 0

Workloads: dashboard, crash_disk (see perfbench/NOTES.md).
The harness is built from the checkout's sources into $CARGO_TARGET_DIR
(default .bench_build); backups and span files go under .bench_run. The
last line of stdout is the JSON result; build output goes to stderr.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dashboard", "crash_disk")
# A run must end within 180 s; the harness itself takes well under this.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_harness", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_harness")


def remove_leftovers(pid, run_dir):
    """Shared-memory segments and backups of a harness that did not exit."""
    for path in glob.glob(f"/dev/shm/pbench{pid}s*"):
        try:
            os.unlink(path)
        except OSError:
            pass
    for path in glob.glob(os.path.join(run_dir, f"pbench{pid}s*")):
        shutil.rmtree(path, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no repository sources beside {HERE}; nothing to build")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    run_dir = os.path.join(ROOT, ".bench_run")
    try:
        harness = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    os.makedirs(run_dir, exist_ok=True)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"harness exceeded {RUN_TIMEOUT_S} s and was stopped")
        code = 1
    remove_leftovers(proc.pid, run_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
