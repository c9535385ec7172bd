#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload terasort-wide --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. The hmr_perfbench binary and the
simulator libraries it links are built with CMake under
$CARGO_TARGET_DIR (default .bench_build)/perfbench; build output goes to
stderr, so the last line of stdout is hmr_perfbench's JSON result. Every
other argument is passed to hmr_perfbench (see perfbench/main.cc). Exits
nonzero, printing no result, when the build fails, e.g. because the
simulator sources are missing.

selftest.py and summary.py import measure() from here.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# End-to-end metrics measured on the host; every other one is modelled
# and repeats bit-for-bit for a seed.
HOST_METRICS = {"setup_s", "wall_s", "peak_rss_mb"}


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "hmr_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build_dir, "out")]
    binary = os.path.join(build_dir, "hmr_perfbench")
    return subprocess.run([binary] + args).returncode


def measure(workload, seed, seconds, trace, extra=()):
    """Runs this script for one workload from the repository root.

    Returns (detail, result), the last two stdout lines parsed, or None
    after echoing the tail of stderr when the run exits nonzero.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


if __name__ == "__main__":
    sys.exit(main())
