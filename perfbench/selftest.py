#!/usr/bin/env python3
"""Self-test of the repository benchmark (perfbench/README.md).

    python3 perfbench/selftest.py

Run from the checkout root; takes about a minute. It checks that:
  * kvbench's own arithmetic holds (kvbench --selftest: the conservation
    check, pooled quantiles and the choice of steal-free windows);
  * a smoke-sized run of every workload, untraced and traced, is correct
    and prints exactly the metrics BENCHMARK.json names, each with its
    unit, both as a text line and in the final JSON line;
  * a hand-made off-by-one total is rejected by the rmw conservation
    check (the run reports correct=false and exits non-zero);
  * in a tree holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
Exits non-zero on the first failed expectation.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py: the build step)


def fail(msg):
    sys.exit("selftest FAIL: " + msg)


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload, trace, spec):
    seconds = "2" if trace else "1"
    out = bench("--workload", workload, "--seed", "7", "--seconds", seconds,
                "--trace", str(trace), "--smoke")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{workload} trace={trace}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {lines[-1][:200]}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        fail(f"{workload} trace={trace}: metric names differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ {m['name'] for m in want})}")
    text = "\n".join(lines[:-1])
    for m in want:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"] or not isinstance(entry["value"], (int, float)):
            fail(f"{workload}: {m['name']} = {entry}, want unit {m['unit']}")
        pattern = r"^metric %s\s+\S+ %s\b" % (re.escape(m["name"]), re.escape(m["unit"]))
        if not re.search(pattern, text, re.M):
            fail(f"{workload}: no text line for {m['name']} with unit {m['unit']}")
        if not trace and entry["value"] <= 0:
            fail(f"{workload}: end-to-end metric {m['name']} is {entry['value']}")
    print(f"selftest ok   {workload} trace={trace}: {len(want)} metrics with units, correct")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    out = subprocess.run([str(binary), "--selftest"], capture_output=True, text=True)
    print(out.stdout, end="")
    if out.returncode != 0:
        fail("kvbench --selftest")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)

    out = bench("--workload", "rmw-hot", "--seed", "7", "--seconds", "1", "--smoke",
                "--perturb-sum", "1")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode == 0 or result["correct"] is not False or result["failed"] < 1 \
            or "FAIL sum of values" not in out.stdout:
        fail("an off-by-one total passed the rmw conservation check")
    print("selftest ok   off-by-one rmw total rejected "
          f"(exit {out.returncode}, failed={result['failed']})")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "ycsb-b", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    if out.returncode == 0 or out.stdout.strip():
        fail("the benchmark alone (no src/) did not fail cleanly")
    print(f"selftest ok   benchmark without the program exits {out.returncode}, no result")


if __name__ == "__main__":
    main()
