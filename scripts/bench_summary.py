#!/usr/bin/env python3
"""Distill bench outputs into one committed JSON summary.

Three modes, selected by which input CSV is given (exactly one):

  * --shards-csv: the CSV written by `bench/ablation_shards --csv=...`
    — one row per (shards, cross_fraction) sweep cell with modelled
    throughput and speedup. Optionally --loadgen-json adds a
    server-side telemetry file written by `bench/svc_loadgen
    --shards=N --telemetry-server=...`, from which the service-level
    shard counters and stage histograms are lifted. Output:
    BENCH_shard.json. Exits nonzero if S=4 stops beating S=1 at <= 1%
    cross-shard traffic (the scaling canary).

  * --hotpath-csv: the CSV written by `bench/micro_validate --csv=...`
    — one row per (signature/window geometry, match kernel) with the
    bit-sliced vs scalar classify latency and the steady-state pipeline
    allocations/validation. Output: BENCH_hotpath.json. Exits nonzero
    if, on the paper geometry (W=64, 512-bit), the bit-sliced scalar
    kernel's speedup over the row-major walk falls below --min-speedup
    (default 2.0), allocations/validation exceed --max-allocs (default
    0.0), or — when any SIMD kernel row is present — the best SIMD
    kernel's speedup over the bit-sliced scalar kernel falls below
    --min-simd-speedup (default 1.5). Hosts without AVX2 emit no SIMD
    rows and the SIMD gate skips rather than fails.

  * --ycsb-csv: the CSV written by `bench/ycsb_run --csv=...` — one
    row per (workload, zipf, engine) with throughput, transaction
    outcomes and per-op latency quantiles for the OCC store and the
    2PL baseline under identical traffic. Output: BENCH_ycsb.json.
    The canary checks the read-heavy workload (--workload, default b)
    at its most skewed zipf cell: the OCC/2PL throughput ratio must
    stay >= --min-occ-ratio and the OCC abort rate <= --max-abort-rate
    (the "low contention" premise, asserted rather than assumed).
    --min-occ-ratio defaults to 1.0 — OCC beats 2PL, the paper's
    expectation (invisible readers vs. hot stripe mutexes). On the
    measured 4-core host 2PL still wins YCSB-B (each OCC update pays an
    engine pass and ordered write-back), so the ctest wiring pins the
    measured OCC/2PL ratio with a documented floor instead
    (tests/CMakeLists.txt).

Usage:
  bench_summary.py --shards-csv CSV [--loadgen-json FILE] --out FILE
  bench_summary.py --hotpath-csv CSV [--min-speedup X] [--max-allocs N]
                   --out FILE
  bench_summary.py --ycsb-csv CSV [--workload W] [--min-occ-ratio X]
                   [--max-abort-rate X] --out FILE
"""

import argparse
import csv
import json
import sys


def load_sweep(path):
    cells = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            cells.append(
                {
                    "shards": int(row["shards"]),
                    "cross_fraction": float(row["cross_fraction"]),
                    "requests": int(row["requests"]),
                    "modeled_throughput_per_s": float(
                        row["modeled_throughput_per_s"]
                    ),
                    "speedup_vs_1": float(row["speedup_vs_1"]),
                    "commit_fraction": float(row["commit_fraction"]),
                    "cross_observed": float(row["cross_observed"]),
                    "imbalance": float(row["imbalance"]),
                }
            )
    if not cells:
        raise SystemExit(f"{path}: no sweep rows")
    return cells


def headline(cells):
    """The acceptance numbers: S=4 vs S=1 at <= 1% cross traffic."""

    def cell(shards, max_cross):
        best = None
        for c in cells:
            if c["shards"] == shards and c["cross_fraction"] <= max_cross:
                if best is None or c["cross_fraction"] > best["cross_fraction"]:
                    best = c
        return best

    s1 = cell(1, 0.01)
    s4 = cell(4, 0.01)
    if s1 is None or s4 is None:
        raise SystemExit("sweep lacks S=1 / S=4 cells at <= 1% cross")
    return {
        "cross_fraction": s4["cross_fraction"],
        "s1_throughput_per_s": s1["modeled_throughput_per_s"],
        "s4_throughput_per_s": s4["modeled_throughput_per_s"],
        "s4_speedup": s4["speedup_vs_1"],
        "s4_beats_s1": s4["modeled_throughput_per_s"]
        > s1["modeled_throughput_per_s"],
    }


def find_section(doc, key):
    """Depth-first search for the first dict holding `key` (the
    telemetry envelope nests the registry export)."""
    if isinstance(doc, dict):
        if key in doc and isinstance(doc[key], dict):
            return doc[key]
        for value in doc.values():
            found = find_section(value, key)
            if found is not None:
                return found
    elif isinstance(doc, list):
        for value in doc:
            found = find_section(value, key)
            if found is not None:
                return found
    return None


def load_service(path):
    with open(path) as f:
        doc = json.load(f)
    counters = find_section(doc, "counters") or {}
    histograms = find_section(doc, "histograms") or {}
    picked = {
        name: int(value)
        for name, value in sorted(counters.items())
        if name.startswith(("svc.", "shard."))
    }
    stages = {
        name: histograms[name]
        for name in ("svc.stage.shard_route", "svc.stage.shard_coord")
        if name in histograms
    }
    answered = (
        sum(v for k, v in picked.items() if k.startswith("svc.verdict."))
        + picked.get("svc.timeout", 0)
        + picked.get("svc.rejected", 0)
    )
    return {
        "counters": picked,
        "stage_histograms": stages,
        "accounting_balanced": picked.get("svc.requests", -1) == answered,
    }


def load_hotpath(path):
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows.append(
                {
                    "window": int(row["window"]),
                    "sig_bits": int(row["sig_bits"]),
                    "hashes": int(row["hashes"]),
                    "reads": int(row["reads"]),
                    "writes": int(row["writes"]),
                    "iters": int(row["iters"]),
                    "kernel": row["kernel"],
                    "sliced_ns": float(row["sliced_ns"]),
                    "scalar_ns": float(row["scalar_ns"]),
                    "speedup": float(row["speedup"]),
                    "pipeline_validate_ns": float(
                        row["pipeline_validate_ns"]
                    ),
                    "allocs_per_validation": float(
                        row["allocs_per_validation"]
                    ),
                }
            )
    if not rows:
        raise SystemExit(f"{path}: no hot-path rows")
    return rows


def hotpath_headline(rows, min_speedup, max_allocs, min_simd_speedup):
    """The acceptance numbers: the paper geometry W=64 / 512-bit.

    Two gated ratios on that geometry: the bit-sliced *scalar* kernel
    against the row-major walk (the layout win, --min-speedup), and the
    best SIMD kernel against the bit-sliced scalar kernel (the explicit
    vectorization win, --min-simd-speedup). The SIMD gate only arms
    when the sweep actually produced SIMD rows — micro_validate emits
    one row per runtime-available kernel, so their absence means the
    host cannot run them, not that they regressed.
    """
    canary = None
    for row in rows:
        if (row["window"] == 64 and row["sig_bits"] == 512
                and row["kernel"] == "scalar"):
            canary = row
    if canary is None:
        raise SystemExit(
            "hot-path sweep lacks the W=64 / 512-bit scalar-kernel row"
        )
    simd = [
        r for r in rows
        if r["window"] == 64 and r["sig_bits"] == 512
        and r["kernel"] != "scalar"
    ]
    best_simd = min(simd, key=lambda r: r["sliced_ns"]) if simd else None
    worst_allocs = max(r["allocs_per_validation"] for r in rows)
    headline = {
        "window": canary["window"],
        "sig_bits": canary["sig_bits"],
        "sliced_ns": canary["sliced_ns"],
        "scalar_ns": canary["scalar_ns"],
        "speedup": canary["speedup"],
        "pipeline_validate_ns": canary["pipeline_validate_ns"],
        "allocs_per_validation": worst_allocs,
        "speedup_ok": canary["speedup"] >= min_speedup,
        "allocs_ok": worst_allocs <= max_allocs,
    }
    if best_simd is None:
        headline["simd_kernel"] = None
        headline["simd_ok"] = True  # skip-not-fail: no SIMD on this host
    else:
        ratio = (canary["sliced_ns"] / best_simd["sliced_ns"]
                 if best_simd["sliced_ns"] > 0 else 0.0)
        headline["simd_kernel"] = best_simd["kernel"]
        headline["simd_sliced_ns"] = best_simd["sliced_ns"]
        headline["simd_speedup_vs_sliced_scalar"] = ratio
        headline["simd_floor"] = min_simd_speedup
        headline["simd_ok"] = ratio >= min_simd_speedup
    return headline


def run_hotpath(args):
    rows = load_hotpath(args.hotpath_csv)
    summary = {
        "bench": "validation-hot-path",
        "tool": "scripts/bench_summary.py",
        "sweep": rows,
        "headline": hotpath_headline(rows, args.min_speedup,
                                     args.max_allocs,
                                     args.min_simd_speedup),
    }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=False)
        f.write("\n")

    h = summary["headline"]
    print(
        f"W={h['window']} m={h['sig_bits']}: bit-sliced "
        f"{h['sliced_ns']:.1f} ns vs scalar {h['scalar_ns']:.1f} ns "
        f"({h['speedup']:.2f}x, floor {args.min_speedup:.2f}x) "
        f"{'OK' if h['speedup_ok'] else 'REGRESSION'}; "
        f"allocs/validation {h['allocs_per_validation']:.3f} "
        f"{'OK' if h['allocs_ok'] else 'REGRESSION'}"
    )
    if h["simd_kernel"] is None:
        print("simd: no SIMD kernel rows (host lacks AVX2) — gate skipped")
    else:
        print(
            f"simd: {h['simd_kernel']} {h['simd_sliced_ns']:.1f} ns vs "
            f"sliced-scalar {h['sliced_ns']:.1f} ns "
            f"({h['simd_speedup_vs_sliced_scalar']:.2f}x, floor "
            f"{h['simd_floor']:.2f}x) "
            f"{'OK' if h['simd_ok'] else 'REGRESSION'}"
        )
    return 0 if h["speedup_ok"] and h["allocs_ok"] and h["simd_ok"] else 1


OPS = ("get", "put", "delete", "scan", "rmw")


def load_ycsb(path):
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            parsed = {
                "workload": row["workload"],
                "engine": row["engine"],
                "zipf": float(row["zipf"]),
                "threads": int(row["threads"]),
                "keys": int(row["keys"]),
                "capacity": int(row["capacity"]),
                "ops": int(row["ops"]),
                "elapsed_ms": float(row["elapsed_ms"]),
                "kops_s": float(row["kops_s"]),
                "commits": int(row["commits"]),
                "aborts": int(row["aborts"]),
                "retries": int(row["retries"]),
                "abort_rate": float(row["abort_rate"]),
                "key_collisions": int(row["key_collisions"]),
            }
            for op in OPS:
                if int(row[f"{op}_count"]) == 0:
                    continue
                parsed[op] = {
                    field: int(row[f"{op}_{field}"])
                    for field in ("count", "mean_ns", "p50_ns",
                                  "p95_ns", "p99_ns")
                }
            rows.append(parsed)
    if not rows:
        raise SystemExit(f"{path}: no ycsb rows")
    return rows


def ycsb_comparison(rows):
    """OCC vs 2PL per (workload, zipf) cell where both engines ran."""
    cells = {}
    for row in rows:
        cells.setdefault((row["workload"], row["zipf"]), {})[
            row["engine"]
        ] = row
    comparison = []
    for (workload, zipf), engines in sorted(cells.items()):
        if "occ" not in engines or "2pl" not in engines:
            continue
        occ, pl = engines["occ"], engines["2pl"]
        comparison.append(
            {
                "workload": workload,
                "zipf": zipf,
                "occ_kops_s": occ["kops_s"],
                "2pl_kops_s": pl["kops_s"],
                "occ_over_2pl": occ["kops_s"] / pl["kops_s"]
                if pl["kops_s"] > 0
                else 0.0,
                "occ_abort_rate": occ["abort_rate"],
                "occ_retries": occ["retries"],
            }
        )
    return comparison


def ycsb_headline(comparison, workload, min_ratio, max_abort_rate):
    """The canary cell: the required workload at its most skewed zipf."""
    candidates = [c for c in comparison if c["workload"] == workload]
    if not candidates:
        raise SystemExit(
            f"ycsb sweep lacks an occ+2pl cell for workload {workload!r}"
        )
    cell = max(candidates, key=lambda c: c["zipf"])
    return {
        "workload": cell["workload"],
        "zipf": cell["zipf"],
        "occ_kops_s": cell["occ_kops_s"],
        "2pl_kops_s": cell["2pl_kops_s"],
        "occ_over_2pl": cell["occ_over_2pl"],
        "occ_abort_rate": cell["occ_abort_rate"],
        "occ_beats_2pl": cell["occ_over_2pl"] > 1.0,
        "ratio_floor": min_ratio,
        "ratio_ok": cell["occ_over_2pl"] >= min_ratio,
        "low_contention_ok": cell["occ_abort_rate"] <= max_abort_rate,
    }


def run_ycsb(args):
    rows = load_ycsb(args.ycsb_csv)
    comparison = ycsb_comparison(rows)
    summary = {
        "bench": "ycsb-kv",
        "tool": "scripts/bench_summary.py",
        "rows": rows,
        "comparison": comparison,
        "headline": ycsb_headline(
            comparison, args.workload, args.min_occ_ratio,
            args.max_abort_rate
        ),
    }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=False)
        f.write("\n")

    h = summary["headline"]
    print(
        f"YCSB-{h['workload'].upper()} zipf={h['zipf']:.2f}: "
        f"occ {h['occ_kops_s']:.0f} kops/s vs 2pl "
        f"{h['2pl_kops_s']:.0f} kops/s "
        f"(ratio {h['occ_over_2pl']:.2f}, floor {h['ratio_floor']:.2f}) "
        f"{'OK' if h['ratio_ok'] else 'REGRESSION'}; "
        f"occ abort rate {h['occ_abort_rate']:.4f} "
        f"{'OK' if h['low_contention_ok'] else 'CONTENDED'}"
    )
    return 0 if h["ratio_ok"] and h["low_contention_ok"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards-csv")
    parser.add_argument("--hotpath-csv")
    parser.add_argument("--ycsb-csv")
    parser.add_argument("--loadgen-json")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--min-simd-speedup", type=float, default=1.5)
    parser.add_argument("--max-allocs", type=float, default=0.0)
    parser.add_argument("--workload", default="b")
    parser.add_argument("--min-occ-ratio", type=float, default=1.0)
    parser.add_argument("--max-abort-rate", type=float, default=0.05)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    given = [
        name
        for name, value in (
            ("--shards-csv", args.shards_csv),
            ("--hotpath-csv", args.hotpath_csv),
            ("--ycsb-csv", args.ycsb_csv),
        )
        if value
    ]
    if len(given) != 1:
        parser.error(
            "give exactly one of --shards-csv / --hotpath-csv / --ycsb-csv"
        )
    if args.hotpath_csv:
        return run_hotpath(args)
    if args.ycsb_csv:
        return run_ycsb(args)

    cells = load_sweep(args.shards_csv)
    summary = {
        "bench": "sharded-validation-tier",
        "tool": "scripts/bench_summary.py",
        "sweep": cells,
        "headline": headline(cells),
    }
    if args.loadgen_json:
        summary["service"] = load_service(args.loadgen_json)

    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=False)
        f.write("\n")

    h = summary["headline"]
    print(
        f"S=4 vs S=1 at cross={h['cross_fraction']:.2%}: "
        f"{h['s4_speedup']:.2f}x "
        f"({'OK' if h['s4_beats_s1'] else 'REGRESSION'})"
    )
    if not h["s4_beats_s1"]:
        return 1
    service = summary.get("service")
    if service is not None and not service["accounting_balanced"]:
        print("service accounting unbalanced", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
