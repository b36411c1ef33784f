#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig7_writes --seed 1 --seconds 20 --trace 0

Builds the simulator and the benchmark runner from source into
.bench_build/ (incrementally after the first run), runs the metric-math
unit tests, then runs one workload and passes its output through. The last
line of standard output is the JSON result; build output goes to standard
error. Records and the benchmark's own spans land in .bench_out/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def revision():
    """Git revision, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([str(BUILD / "test_metric_math"), "--gtest_brief=1"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT}; run from a full "
             "checkout")
    build()
    runner = subprocess.run(
        [str(BUILD / "perfbench_runner"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", args.trace, "--revision", revision(), "--out", str(OUT)])
    sys.exit(runner.returncode)


if __name__ == "__main__":
    main()
