#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload ycsb-b --seed 1 --seconds 20 --trace 0

Run from the checkout root. The first run configures and builds
perfbench/ -- kvbench plus the program libraries it compiles
from src/ -- into .bench_build/perfbench; later runs only check that the
build is current. Build output goes to stderr. Standard output carries
kvbench's text lines and, last, its one-line JSON result. The exit code
is kvbench's: non-zero when a result check failed. Without src/ (a tree
holding only the benchmark) the build fails and the command exits
non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_REL = Path(".bench_build") / "perfbench"
BUILD = ROOT / BUILD_REL
RUN_TIMEOUT_S = 170


def step(cmd):
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: '%s' failed (exit %d)" % (" ".join(cmd), result.returncode))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no program sources (src/) next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(BUILD), "--target", "kvbench", "-j", jobs])
    return BUILD / "kvbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ycsb-b", "rmw-hot", "svc-rmw-hot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="1/16 of the key space (self-test)")
    parser.add_argument("--perturb-sum", type=int, default=0,
                        help="add this to the summed values before the rmw conservation check")
    args = parser.parse_args()

    binary = build()
    # Paths relative to the checkout root keep the unix socket path short.
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--socket", str(BUILD_REL / "kvbench.sock"),
           "--telemetry-out", str(BUILD_REL / "kvbench-telemetry.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_sum:
        cmd += ["--perturb-sum", str(args.perturb_sum)]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: kvbench did not finish within %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
