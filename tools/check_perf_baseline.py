#!/usr/bin/env python3
"""Gate a hot-path bench document against a committed baseline.

Usage: check_perf_baseline.py BENCH_JSON BASELINE_JSON

Absolute throughput (MIPS, accesses/sec, sweep wall-clock) varies
wildly across CI machines, so those are only sanity-checked (present,
finite, positive). What the gate actually enforces are the *mode
ratios*, which are largely machine-independent properties of the
simulator's hot path:

  - emulate_over_inorder = emulate_block_mips / inorder_cache_mips
  - emulate_over_ooo     = emulate_block_mips / ooo_cache_mips
    Emulation must stay the cheap mode; a collapse of either ratio
    means someone made the emulate path expensive (or the timing
    models suspiciously cheap) without noticing.
  - sweep_threads_scaling = sweep_table2_threads1_wall_seconds /
                            sweep_table2_threads2_wall_seconds
    A second thread must keep helping a sweep: runSweep's threads
    (src/driver/sweep_run.cc) share nothing but a cell index.
    (That claim-loop workers execute cells outside the store's
    writer gate is a deterministic unit test,
    ClaimExecutorTest.WorkersExecuteCellsOutsideTheWriterGate.)

Each ratio must lie within a multiplicative factor `ratio_tol` of
the baseline value (band [base / tol, base * tol]).

Two end-to-end wall speedups get a hard floor of `wall_floor` (1.1)
instead of a band:

  - accel_vs_full_wall         = Full / Accelerated wall seconds
  - sampled_accel_vs_full_wall = Full / SampledAccel wall seconds
    of one fixed ab-seq cell, timed in one process on one thread
    (microbench_components --bench-json). Skipping OS services must
    pay for itself in host time, not only in detailed instructions.

Every ratio and floor is checked and its verdict printed (passes on
stdout, failures on stderr); the exit status is 1 if any check failed,
so one red floor cannot hide another. A document or baseline the gate
cannot read (bad schema, missing metrics) stops it at once.

Regenerate the baseline (after an intentional hot-path change), on a
quiet machine with a Release (-O3) build:

  ./bench/microbench_components --bench-json hotpath.json --smoke
  ./bench/sweep fig08 --smoke --out /dev/null \
      --bench-json hotpath.json --log-level silent
  ./bench/fig13_sampled_speedup --smoke --threads "$(nproc)" \
      --bench-json hotpath.json > /dev/null
  for t in 1 2; do
    ./bench/sweep table2 --smoke --threads "$t" --out /dev/null \
        --bench-json hotpath.json --log-level silent
  done
  ./tools/check_perf_baseline.py hotpath.json \
      bench/baselines/hotpath_smoke.json --update
"""

import argparse
import json
import math
import sys

RATIO_TOL = 2.5
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
    "emulate_over_inorder": ("emulate_block_mips",
                             "inorder_cache_mips"),
    "emulate_over_ooo": ("emulate_block_mips", "ooo_cache_mips"),
    # Thread scaling: one-thread wall time over two-thread wall time
    # for the same sweep (>1 = the second thread helps; the
    # tolerance band keeps a serialisation regression from landing).
    "sweep_threads_scaling": ("sweep_table2_threads1_wall_seconds",
                              "sweep_table2_threads2_wall_seconds"),
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
    failed = []

    def check(ok, msg):
        if ok:
            print(f"perf baseline: ok: {msg}")
        else:
            failed.append(msg)
            print(f"perf baseline: FAIL: {msg}", file=sys.stderr)

    for name, base in want["ratios"].items():
        cur = got.get(name)
        if cur is None:
            fail(f"ratio {name!r} not computable from results")
        check(base / tol <= cur <= base * tol,
              f"{name} {cur:.3f}, band [{base / tol:.3f}, "
              f"{base * tol:.3f}] (baseline {base:.3f}, tol x{tol})")

    if "sampled_vs_full_speedup" in want.get("required_metrics",
                                             []):
        sampled_floor = want.get("sampled_floor", SAMPLED_FLOOR)
        speedup = metrics["sampled_vs_full_speedup"]
        check(speedup >= sampled_floor,
              f"sampled_vs_full_speedup {speedup:.4f}, floor "
              f"{sampled_floor}: the composed sampling x prediction "
              f"shrink")
        fraction = metrics.get("sampled_detailed_fraction")
        check(fraction is not None and fraction < 1.0,
              f"sampled_detailed_fraction {fraction!r}, must be below "
              f"1.0: sampled runs skip work")

    wall_floor = want.get("wall_floor", WALL_FLOOR)
    for name in WALL_SPEEDUPS:
        if name in want.get("required_metrics", []):
            check(metrics[name] >= wall_floor,
                  f"{name} {metrics[name]:.3f}, floor {wall_floor}: "
                  f"the skipping mode must beat full detail")

    if failed:
        print(f"perf baseline: {len(failed)} check(s) failed",
              file=sys.stderr)
        sys.exit(1)
    print(f"perf baseline: OK ({len(want['ratios'])} ratios within "
          f"x{tol} of baseline)")


if __name__ == "__main__":
    main()
