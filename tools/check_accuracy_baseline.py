#!/usr/bin/env python3
"""Gate a sweep's accuracy section against a committed baseline.

Usage: check_accuracy_baseline.py RESULTS_JSON BASELINE_JSON [--update]

Structure is compared exactly (same sweep, same set of accuracy
cells, audits present); numerics are compared with
tolerances, because cluster formation and cycle sums shift slightly
across compilers and optimisation levels (FP contraction), and the
point of the gate is catching *accuracy regressions*, not bit
drift:

  - prediction/audit counts must stay within `count_rtol` of the
    baseline (a collapse in prediction coverage or audit volume is
    a regression even if errors look fine);
  - the audit-estimated end-to-end error and the oracle-measured
    error must stay within `err_atol` of the baseline values;
  - the oracle error must fall within the ledger's own reported
    95% CI whenever the baseline says it did (the repo's headline
    cross-check);
  - per-predictor summary rollups (mean/worst oracle cycle error
    and mean coverage across every workload in the sweep) must
    stay within `err_atol` of the baseline.

The PLT is the only predictor. A results document that names
predictor backends (`sweep.backends`, written by sweeps that could
select a removed learned backend) or a baseline recorded for another
backend fails: neither can describe the PLT.

Regenerate a baseline (after an intentional accuracy change):

  ./bench/sweep fig08 --smoke --no-timing --out smoke.json
  ./tools/check_accuracy_baseline.py smoke.json \
      bench/baselines/accuracy_smoke.json --update
"""

import argparse
import json
import sys

COUNT_RTOL = 0.25
ERR_ATOL = 0.05


def fail(msg):
    print(f"accuracy baseline: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def cell_key(cell):
    return (cell["workload"], cell["predictor"],
            cell["l2_bytes"], cell["seed_index"])


def distil(doc):
    """Reduce a results document to the gated quantities."""
    if "backends" in doc["sweep"]:
        fail(f"results produced by predictor backend(s) "
             f"{doc['sweep']['backends']}; only the PLT is gated")
    acc = doc.get("accuracy")
    if acc is None:
        fail("results document has no 'accuracy' section")
    if acc.get("schema") != "ospredict-accuracy-v1":
        fail(f"unexpected accuracy schema {acc.get('schema')!r}")
    cells = {}
    for cell in acc["cells"]:
        ledger = cell["ledger"]
        entry = {
            "predictions": ledger["predictions"],
            "audits": ledger["audits"],
            "audit_failures": ledger["audit_failures"],
            "drifting_clusters": ledger["drifting_clusters"],
        }
        est = ledger.get("estimate")
        if est is not None:
            entry["est_rel_total_err"] = est["rel_total_err"]
            if "ci95" in est:
                entry["est_ci95"] = est["ci95"]
        oracle = cell.get("oracle")
        if oracle is not None:
            entry["oracle_rel_err"] = oracle["rel_err"]
            if "within_ci" in oracle:
                entry["within_ci"] = oracle["within_ci"]
        cells["/".join(map(str, cell_key(cell)))] = entry
    # Per-predictor rollups cover every workload in the sweep, not
    # just the cells that accumulated audit samples: a predictor that
    # silently degraded on a workload without audits still moves
    # mean/worst oracle error here.
    summary = {}
    for pred in doc["summary"]["predictors"]:
        summary[pred["predictor"]] = {
            "cells": pred["cells"],
            "mean_cycle_error": pred["mean_cycle_error"],
            "worst_cycle_error": pred["worst_cycle_error"],
            "mean_coverage": pred["mean_coverage"],
        }
    return {
        "schema": "ospredict-accuracy-baseline-v1",
        "sweep": doc["sweep"]["name"],
        "smoke": doc["sweep"].get("smoke", False),
        "count_rtol": COUNT_RTOL,
        "err_atol": ERR_ATOL,
        "cells": cells,
        "summary": summary,
    }


def close_count(got, want, rtol):
    return abs(got - want) <= max(1, rtol * max(abs(want), 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("results")
    ap.add_argument("baseline")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the results")
    args = ap.parse_args()

    with open(args.results) as f:
        got = distil(json.load(f))

    if args.update:
        with open(args.baseline, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"accuracy baseline: wrote {args.baseline} "
              f"({len(got['cells'])} cells)")
        return

    with open(args.baseline) as f:
        want = json.load(f)
    if want.get("schema") != "ospredict-accuracy-baseline-v1":
        fail(f"bad baseline schema {want.get('schema')!r}")
    if got["sweep"] != want["sweep"] or got["smoke"] != want["smoke"]:
        fail(f"sweep mismatch: results {got['sweep']!r} "
             f"smoke={got['smoke']} vs baseline {want['sweep']!r} "
             f"smoke={want['smoke']}")
    if want.get("backend", "plt") != "plt":
        fail(f"baseline belongs to predictor backend "
             f"{want['backend']!r}; only the PLT is gated")

    rtol = want.get("count_rtol", COUNT_RTOL)
    atol = want.get("err_atol", ERR_ATOL)
    if set(got["cells"]) != set(want["cells"]):
        fail(f"accuracy cell set changed: "
             f"results {sorted(got['cells'])} vs "
             f"baseline {sorted(want['cells'])}")

    for key, base in want["cells"].items():
        cur = got["cells"][key]
        for field in ("predictions", "audits"):
            if not close_count(cur[field], base[field], rtol):
                fail(f"{key}: {field} {cur[field]} drifted from "
                     f"baseline {base[field]} (rtol {rtol})")
        if cur["audits"] == 0:
            fail(f"{key}: no audit samples")
        for field in ("est_rel_total_err", "oracle_rel_err"):
            if field in base:
                if field not in cur:
                    fail(f"{key}: {field} disappeared")
                if abs(cur[field] - base[field]) > atol:
                    fail(f"{key}: {field} {cur[field]:+.4f} "
                         f"drifted from baseline "
                         f"{base[field]:+.4f} (atol {atol})")
        if base.get("within_ci") and not cur.get("within_ci"):
            fail(f"{key}: oracle error left the audit estimate's "
                 f"95% CI (baseline agreed)")

    # Summary rollups (absent from old baselines; regenerate with
    # --update to arm).
    want_summary = want.get("summary", {})
    if want_summary:
        if set(got["summary"]) != set(want_summary):
            fail(f"predictor summary set changed: "
                 f"results {sorted(got['summary'])} vs "
                 f"baseline {sorted(want_summary)}")
        for label, base in want_summary.items():
            cur = got["summary"][label]
            if cur["cells"] != base["cells"]:
                fail(f"summary[{label}]: cell count "
                     f"{cur['cells']} != baseline {base['cells']}")
            for field in ("mean_cycle_error", "worst_cycle_error",
                          "mean_coverage"):
                if abs(cur[field] - base[field]) > atol:
                    fail(f"summary[{label}]: {field} "
                         f"{cur[field]:.4f} drifted from baseline "
                         f"{base[field]:.4f} (atol {atol})")

    print(f"accuracy baseline: OK "
          f"({len(want['cells'])} cells, "
          f"{len(want_summary)} predictor rollups, "
          f"count_rtol {rtol}, err_atol {atol})")


if __name__ == "__main__":
    main()
