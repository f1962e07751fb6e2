#!/usr/bin/env python3
"""Builds and runs the synthesis benchmark.

    python3 synthbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 synthbench/run.py --selftest
    python3 synthbench/run.py --workload NAME --seed 0 --record   # refresh expected results

Run from the repository root. The first call configures and builds the
program's libraries and the benchmark from source into the build directory
($CARGO_TARGET_DIR, default .bench_build) and runs the benchmark's
self-tests; later calls rebuild incrementally. The benchmark's last stdout
line is one JSON object (see README.md). The exit status is non-zero when
the build, the self-tests or any output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1_turbomap", "small_turbosyn", "serve_mixed")
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if fresh:
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    return not fresh or selftest(build_dir)


def selftest(build_dir):
    work = os.path.join(build_dir, "work-selftest-%d" % os.getpid())
    try:
        proc = subprocess.run([os.path.join(build_dir, "synthbench_selftest"),
                               "--work-dir", work], stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="write the expected-results file for this seed")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        log("build or self-test failed")
        return 2
    if args.selftest:
        return 0 if selftest(build_dir) else 1

    work = os.path.join(build_dir, "work-%d" % os.getpid())
    expected_dir = os.path.join(HERE, "expected")
    cmd = [os.path.join(build_dir, "synthbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work,
           "--expected-dir", expected_dir]
    if args.record:
        cmd += ["--record", "1"]
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
