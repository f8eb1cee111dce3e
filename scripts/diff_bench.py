#!/usr/bin/env python3
"""Diff two bench trajectory files (BENCH_pr<N>.json).

Compares the per-binary bench scalars and telemetry counters between a
baseline trajectory file and a new one, printing a delta table so a PR's
bench run can be eyeballed against the previous PR's committed file.

    scripts/diff_bench.py BENCH_pr3.json BENCH_pr4.json
    scripts/diff_bench.py --baseline-latest BENCH_pr4.json
    scripts/diff_bench.py --fail-over 25 old.json new.json

Timings are report-only by default: bench timings on shared CI runners are
noisy, so regressions are surfaced, not enforced. The exception is the
per-op work scalars (bench metrics named *_items_merged_per_op_* or
*_items_written_per_op_*): they count what a seeded run does, so any change
against the baseline exits 1. A change that alters the work on purpose
commits a fresh BENCH_pr<N>.json, which the next diff uses as its baseline;
a scalar the baseline lacks is reported as new, never gated, and one the
new file lacks is reported as REMOVED (gated like a change when it is a
per-op work scalar). --fail-over PCT turns any scalar whose |delta|
exceeds PCT percent into a nonzero exit (counters whose
baseline is 0 are reported as "new" and never fail). Telemetry *counters*
get the same threshold. Only two remain (ingest staged items and runs);
work counts are bench scalars read from HeapStats/PipelineStats. Against a
trajectory file recorded while the counters still repeated those (cycles,
items, procs, WAL appends, watchdog stalls, lane quarantines), the dropped
counters show as counter.* REMOVED rows.
"""

import argparse
import glob
import json
import os
import re
import sys

# Seeded per-op work counters: equal on every run of the same code.
EXACT = re.compile(r"_items_(merged|written)_per_op_")


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    if "benches" not in doc:
        sys.exit(f"diff_bench: {path}: not a trajectory file (no 'benches' key)")
    return doc


def load_baseline(path):
    """Baseline-side load degrades instead of failing: a PR that introduces a
    new schema, new binaries, or new counters must not be failed by the OLD
    file's shape. Returns None (diff skipped, exit 0) when the baseline is
    missing, unparsable, or schema-less; the NEW side stays strict."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        print(f"diff_bench: WARNING: baseline {path}: {e.strerror or e}; "
              "skipping diff (report-only)")
        return None
    except json.JSONDecodeError as e:
        print(f"diff_bench: WARNING: baseline {path}: unparsable JSON ({e}); "
              "skipping diff (report-only)")
        return None
    if "benches" not in doc:
        print(f"diff_bench: WARNING: baseline {path}: no 'benches' key "
              "(pre-trajectory schema); skipping diff (report-only)")
        return None
    return doc


def latest_trajectory(root, exclude):
    """Highest-numbered BENCH_pr<N>.json under root, excluding `exclude`."""
    best, best_n = None, -1
    for path in glob.glob(os.path.join(root, "BENCH_pr*.json")):
        if os.path.abspath(path) == os.path.abspath(exclude):
            continue
        m = re.fullmatch(r"BENCH_pr(\d+)\.json", os.path.basename(path))
        if m and int(m.group(1)) > best_n:
            best, best_n = path, int(m.group(1))
    return best


def provenance_of(doc):
    """First provenance block found among the file's bench documents (all
    binaries in one trajectory run share a build, so any one is
    representative). None for pre-provenance schemas."""
    for bench_doc in doc.get("benches", {}).values():
        prov = bench_doc.get("provenance")
        if isinstance(prov, dict):
            return prov
    return None


def print_provenance_diff(old_doc, new_doc):
    """Surface build-config skew between the two runs: a timing delta against
    a baseline built with different flags / telemetry state / hardware is not
    a regression signal, so say so before the delta table."""
    old_p, new_p = provenance_of(old_doc), provenance_of(new_doc)
    if old_p is None or new_p is None:
        if new_p is not None:
            print("diff_bench: note: baseline predates provenance capture; "
                  "build-config comparability unknown")
        return
    keys = sorted(set(old_p) | set(new_p))
    diffs = [(k, old_p.get(k, "<absent>"), new_p.get(k, "<absent>"))
             for k in keys if old_p.get(k) != new_p.get(k)]
    if not diffs:
        return
    print("diff_bench: WARNING: build/host provenance differs — timing deltas "
          "below may reflect the build, not the code:")
    for k, o, n in diffs:
        print(f"  provenance.{k}: {o!r} -> {n!r}")


def scalars(bench_doc):
    """Flatten one binary's document into {metric_name: number}."""
    out = {}
    for k, v in bench_doc.get("bench", {}).items():
        if isinstance(v, (int, float)):
            out[f"bench.{k}"] = float(v)
    for k, v in bench_doc.get("telemetry", {}).get("counters", {}).items():
        if isinstance(v, (int, float)):
            out[f"counter.{k}"] = float(v)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?", help="baseline BENCH_pr<N>.json")
    ap.add_argument("new", help="new BENCH_pr<N>.json")
    ap.add_argument("--baseline-latest", action="store_true",
                    help="use the highest-numbered committed BENCH_pr*.json "
                         "(other than NEW) as the baseline")
    ap.add_argument("--fail-over", type=float, metavar="PCT", default=None,
                    help="exit 1 if any scalar moved more than PCT percent")
    ap.add_argument("--min-delta", type=float, metavar="PCT", default=1.0,
                    help="hide rows that moved less than PCT percent (default 1)")
    args = ap.parse_args()

    if args.baseline_latest:
        root = os.path.dirname(os.path.abspath(args.new)) or "."
        args.baseline = latest_trajectory(root, args.new)
        if args.baseline is None:
            print("diff_bench: no prior BENCH_pr*.json found; nothing to diff")
            return 0
    elif args.baseline is None:
        ap.error("baseline file required (or pass --baseline-latest)")

    new_doc = load(args.new)
    old_doc = load_baseline(args.baseline)
    if old_doc is None:
        return 0
    print(f"diff_bench: pr{old_doc.get('pr', '?')} -> pr{new_doc.get('pr', '?')} "
          f"({args.baseline} -> {args.new})")
    print_provenance_diff(old_doc, new_doc)

    old_b, new_b = old_doc["benches"], new_doc["benches"]
    for name in sorted(set(old_b) - set(new_b)):
        print(f"  {name}: REMOVED")
    for name in sorted(set(new_b) - set(old_b)):
        print(f"  {name}: NEW")

    worst = 0.0
    rows = hidden = 0
    inexact = []
    for name in sorted(set(old_b) & set(new_b)):
        so, sn = scalars(old_b[name]), scalars(new_b[name])
        for metric in sorted(set(so) & set(sn)):
            o, n = so[metric], sn[metric]
            if o == n:
                continue
            if metric.startswith("bench.") and EXACT.search(metric):
                inexact.append(f"{name}/{metric}: {o:g} -> {n:g}")
            if o == 0:
                print(f"  {name}/{metric}: 0 -> {n:g} (new)")
                continue
            pct = 100.0 * (n - o) / abs(o)
            worst = max(worst, abs(pct))
            if abs(pct) < args.min_delta:
                hidden += 1
                continue
            rows += 1
            print(f"  {name}/{metric}: {o:g} -> {n:g}  ({pct:+.1f}%)")
        for metric in sorted(set(sn) - set(so)):
            print(f"  {name}/{metric}: (new metric) {sn[metric]:g}")
        for metric in sorted(set(so) - set(sn)):
            print(f"  {name}/{metric}: REMOVED (was {so[metric]:g})")
            if metric.startswith("bench.") and EXACT.search(metric):
                inexact.append(f"{name}/{metric}: {so[metric]:g} -> REMOVED")

    print(f"diff_bench: {rows} deltas shown, {hidden} below {args.min_delta}% "
          f"hidden, worst |delta| {worst:.1f}%")
    if inexact:
        print(f"diff_bench: FAIL — {len(inexact)} per-op work scalar(s) differ from "
              "or are missing against the baseline (exact gate; commit a fresh "
              "trajectory if intended):")
        for line in inexact:
            print(f"  {line}")
        return 1
    if args.fail_over is not None and worst > args.fail_over:
        print(f"diff_bench: FAIL — worst delta {worst:.1f}% exceeds "
              f"--fail-over {args.fail_over:g}%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
