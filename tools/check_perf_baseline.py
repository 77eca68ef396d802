#!/usr/bin/env python3
"""Gate a hot-path bench document against a committed baseline.

Usage: check_perf_baseline.py BENCH_JSON BASELINE_JSON

Absolute throughput (MIPS, accesses/sec, sweep wall-clock) varies
wildly across CI machines, so those are only sanity-checked (present,
finite, positive). What the gate actually enforces are the *mode
ratios*, which are largely machine-independent properties of the
simulator's hot path:

  - block_speedup        = emulate_block_mips / emulate_perop_mips
    The batched run loop must never regress to (or below) the legacy
    per-op loop: a hard floor of `block_floor`, plus a tolerance band
    around the baseline ratio.
  - emulate_over_inorder = emulate_block_mips / inorder_cache_mips
  - emulate_over_ooo     = emulate_block_mips / ooo_cache_mips
    Emulation must stay the cheap mode; a collapse of either ratio
    means someone made the emulate path expensive (or the timing
    models suspiciously cheap) without noticing.
  - sweep_jobs_scaling   = sweep_table2_jobs1_fleet_seconds /
                           sweep_table2_jobs2_fleet_seconds
    Adding a second worker process to a distributed sweep must keep
    helping: the claim/lease coordination cost (see
    src/driver/claim_executor.hh) stays bounded.

Each ratio must lie within a multiplicative factor `ratio_tol` of
the baseline value (band [base / tol, base * tol]).

Two end-to-end wall speedups get a hard floor of `wall_floor` (1.1)
instead of a band:

  - accel_vs_full_wall         = Full / Accelerated wall seconds
  - sampled_accel_vs_full_wall = Full / SampledAccel wall seconds
    of one fixed ab-seq cell, timed in one process on one thread
    (microbench_components --bench-json). Skipping OS services must
    pay for itself in host time, not only in detailed instructions.

Regenerate the baseline (after an intentional hot-path change), on a
quiet machine with a Release (-O3) build:

  ./bench/microbench_components --bench-json hotpath.json --smoke
  ./bench/sweep fig08 --smoke --threads "$(nproc)" --out /dev/null \
      --bench-json hotpath.json --log-level silent
  ./bench/fig13_sampled_speedup --smoke --threads "$(nproc)" \
      --bench-json hotpath.json > /dev/null
  for j in 1 2; do
    rm -f "jobs$j.db" "jobs$j.db.lock"
    ./bench/sweep table2 --smoke --jobs "$j" --store "jobs$j.db" \
        --threads 2 --out /dev/null --bench-json hotpath.json \
        --log-level silent
  done
  ./tools/check_perf_baseline.py hotpath.json \
      bench/baselines/hotpath_smoke.json --update
"""

import argparse
import json
import math
import sys

RATIO_TOL = 2.5
BLOCK_FLOOR = 1.0
# Composed sampling x prediction shrink of detailed-simulated
# instructions (fig13's median over the workload set). Instruction
# counts are deterministic, so unlike the wall-clock ratios this
# gets a hard floor, not a tolerance band: median >= 3 is exactly
# ">= 3x shrink on at least 3 of the 5 workloads".
SAMPLED_FLOOR = 3.0
# A predicted or sampled cell must be clearly faster than its
# full-detail twin. Set from measurements with at least 15% headroom
# below the smallest of five smoke runs (EXPERIMENTS.md, "Performance
# methodology"); raise it as the skipping modes get cheaper.
WALL_FLOOR = 1.1
WALL_SPEEDUPS = ("accel_vs_full_wall", "sampled_accel_vs_full_wall")

RATIOS = {
    "block_speedup": ("emulate_block_mips", "emulate_perop_mips"),
    "emulate_over_inorder": ("emulate_block_mips",
                             "inorder_cache_mips"),
    "emulate_over_ooo": ("emulate_block_mips", "ooo_cache_mips"),
    # Multi-process scaling: one-worker fleet time over two-worker
    # fleet time for the same sweep (>1 = the second process helps;
    # the tolerance band keeps a coordination regression — e.g. a
    # writer gate held across cell execution — from landing).
    "sweep_jobs_scaling": ("sweep_table2_jobs1_fleet_seconds",
                           "sweep_table2_jobs2_fleet_seconds"),
}


def fail(msg):
    print(f"perf baseline: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "ospredict-bench-v1":
        fail(f"{path}: unexpected schema {doc.get('schema')!r}")
    metrics = {}
    for name, entry in doc.get("metrics", {}).items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or \
                not math.isfinite(value) or value <= 0:
            fail(f"{path}: metric {name!r} has non-positive or "
                 f"non-finite value {value!r}")
        metrics[name] = float(value)
    if not metrics:
        fail(f"{path}: no metrics")
    return doc, metrics


def ratios_of(metrics, path):
    out = {}
    for name, (num, den) in RATIOS.items():
        if num not in metrics or den not in metrics:
            fail(f"{path}: needs {num!r} and {den!r} for the "
                 f"{name!r} ratio")
        out[name] = metrics[num] / metrics[den]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("results")
    ap.add_argument("baseline")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the results")
    args = ap.parse_args()

    doc, metrics = load_metrics(args.results)
    got = ratios_of(metrics, args.results)

    if args.update:
        baseline = {
            "schema": "ospredict-bench-baseline-v1",
            "smoke": doc.get("smoke", False),
            "ratio_tol": RATIO_TOL,
            "block_floor": BLOCK_FLOOR,
            "ratios": {k: round(v, 4)
                       for k, v in sorted(got.items())},
            "required_metrics": sorted(metrics),
        }
        if "sampled_vs_full_speedup" in metrics:
            baseline["sampled_floor"] = SAMPLED_FLOOR
        if any(name in metrics for name in WALL_SPEEDUPS):
            baseline["wall_floor"] = WALL_FLOOR
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"perf baseline: wrote {args.baseline} "
              f"({len(got)} ratios)")
        return

    with open(args.baseline) as f:
        want = json.load(f)
    if want.get("schema") != "ospredict-bench-baseline-v1":
        fail(f"bad baseline schema {want.get('schema')!r}")
    if doc.get("smoke", False) != want.get("smoke", False):
        fail(f"smoke mismatch: results {doc.get('smoke', False)} "
             f"vs baseline {want.get('smoke', False)}")

    missing = set(want.get("required_metrics", [])) - set(metrics)
    if missing:
        fail(f"metrics disappeared: {sorted(missing)}")

    tol = want.get("ratio_tol", RATIO_TOL)
    floor = want.get("block_floor", BLOCK_FLOOR)
    if got["block_speedup"] < floor:
        fail(f"block_speedup {got['block_speedup']:.3f} fell below "
             f"the hard floor {floor} — the batched loop is slower "
             f"than the per-op loop")
    for name, base in want["ratios"].items():
        cur = got.get(name)
        if cur is None:
            fail(f"ratio {name!r} not computable from results")
        if not base / tol <= cur <= base * tol:
            fail(f"{name} {cur:.3f} outside [{base / tol:.3f}, "
                 f"{base * tol:.3f}] (baseline {base:.3f}, "
                 f"tol x{tol})")

    if "sampled_vs_full_speedup" in want.get("required_metrics",
                                             []):
        sampled_floor = want.get("sampled_floor", SAMPLED_FLOOR)
        speedup = metrics["sampled_vs_full_speedup"]
        if speedup < sampled_floor:
            fail(f"sampled_vs_full_speedup {speedup:.3f} fell "
                 f"below the floor {sampled_floor} — the composed "
                 f"sampling x prediction shrink regressed")
        fraction = metrics.get("sampled_detailed_fraction")
        if fraction is None or not fraction < 1.0:
            fail(f"sampled_detailed_fraction {fraction!r} must be "
                 f"below 1.0 — sampled runs are not skipping work")

    wall_floor = want.get("wall_floor", WALL_FLOOR)
    for name in WALL_SPEEDUPS:
        if name in want.get("required_metrics", []) and \
                metrics[name] < wall_floor:
            fail(f"{name} {metrics[name]:.3f} fell below the floor "
                 f"{wall_floor} — the skipping mode is slower than "
                 f"full detail")

    print(f"perf baseline: OK ({len(want['ratios'])} ratios within "
          f"x{tol} of baseline; block_speedup "
          f"{got['block_speedup']:.2f} >= {floor})")


if __name__ == "__main__":
    main()
