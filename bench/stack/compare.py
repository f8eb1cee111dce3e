#!/usr/bin/env python3
"""Collects and compares bench_stack result files.

A result file holds the stdout of one run (run.py); its last line is the
JSON result. Files are named <workload>.<seed>.json, which is how they are
grouped by workload and paired across two sets.

    compare.py collect OUT --seeds 1-10 [--workloads w1,w2] [--trace 1]
        run every workload once per seed and store OUT/<workload>.<seed>.json
    compare.py spread DIR
        per (metric, workload): median, quartiles and spread = IQR / median
        against the metric's bound in BENCHMARK.json
    compare.py agree A B
        two sets of runs of the same code: each pair agrees when both spreads
        are within the bound and B's median is not worse than A's by more
        than the bound; a spread wider than the bound is "unresolved"
    compare.py claim PARENT CHANGE --metric M --workload W
        the rule a claimed gain is judged by: at least 10 pairs (matched by
        seed, run alternately), the change wins at least 9 in 10 of them,
        and the medians differ by more than the parent's IQR; every other
        (metric, workload) pair must not worsen by more than its bound

Quartiles are statistics.quantiles(values, n=4). Per-layer metrics have no
bound; they are listed with their spread only.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    specs = {}
    for m in bench["end_to_end"]:
        specs[m["name"]] = {"better": m["better"], "bound": m["bound"]}
    for m in bench["per_layer"]:
        specs[m["name"]] = {"better": m["better"], "bound": None}
    return bench, specs


def load_runs(directory):
    """{workload: {seed: result}} from <workload>.<seed>.json files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        name = os.path.basename(path)[:-len(".json")]
        workload, _, seed = name.rpartition(".")
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not workload or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print("compare.py: %s has no JSON result line" % path, file=sys.stderr)
            continue
        runs.setdefault(workload, {})[seed] = result
    return runs


def values(runs, workload, metric):
    out = []
    for result in runs.get(workload, {}).values():
        m = result.get("metrics", {}).get(metric)
        if m is not None:
            out.append(float(m["value"]))
    return out


def summary(vals):
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return {"n": len(vals), "median": v, "q1": v, "q3": v, "spread": float("nan")}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    spread = (q3 - q1) / abs(med) if med != 0 else float("inf")
    return {"n": len(vals), "median": med, "q1": q1, "q3": q3, "spread": spread}


def worsening(parent, change, better):
    """Relative worsening of `change` vs `parent` (positive = worse)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def metric_names(runs):
    names = set()
    for per_seed in runs.values():
        for result in per_seed.values():
            names.update(result.get("metrics", {}).keys())
    return sorted(names)


def cmd_collect(args):
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in load_benchmark(args.benchmark)[0]["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    failed = 0
    for seed in seeds:
        for workload in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            with open(os.path.join(args.out, "%s.%d.json" % (workload, seed)), "w") as f:
                f.write(proc.stdout)
            status = "ok" if proc.returncode == 0 else "FAILED (exit %d)" % proc.returncode
            failed += proc.returncode != 0
            print("%s seed %d: %s" % (workload, seed, status), flush=True)
    return 1 if failed else 0


def cmd_spread(args):
    _, specs = load_benchmark(args.benchmark)
    runs = load_runs(args.dir)
    bad = 0
    print("%-14s %-32s %3s %14s %14s %14s %8s %6s  %s" %
          ("workload", "metric", "n", "median", "q1", "q3", "spread", "bound", "verdict"))
    for workload in sorted(runs):
        for metric in metric_names({workload: runs[workload]}):
            s = summary(values(runs, workload, metric))
            bound = specs.get(metric, {}).get("bound")
            if bound is None:
                verdict = ""
            elif metric == "setup_s":
                verdict = "(not gated)"
            elif s["spread"] <= bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                bad += 1
            print("%-14s %-32s %3d %14.6g %14.6g %14.6g %8.4f %6s  %s" %
                  (workload, metric, s["n"], s["median"], s["q1"], s["q3"], s["spread"],
                   "" if bound is None else "%.3g" % bound, verdict))
    return 1 if bad else 0


def cmd_agree(args):
    _, specs = load_benchmark(args.benchmark)
    a, b = load_runs(args.a), load_runs(args.b)
    bad = 0
    print("%-14s %-32s %14s %14s %9s %6s  %s" %
          ("workload", "metric", "median A", "median B", "B worse", "bound", "verdict"))
    for workload in sorted(set(a) & set(b)):
        for metric in metric_names({workload: a[workload]}):
            spec = specs.get(metric)
            if spec is None or spec["bound"] is None:
                continue
            sa = summary(values(a, workload, metric))
            sb = summary(values(b, workload, metric))
            worse = worsening(sa["median"], sb["median"], spec["better"])
            bound = spec["bound"]
            noisy = metric != "setup_s" and max(sa["spread"], sb["spread"]) > bound
            if noisy:
                verdict = "unresolved (spread %.3f / %.3f)" % (sa["spread"], sb["spread"])
                bad += 1
            elif worse > bound:
                verdict = "DISAGREE"
                bad += 1
            else:
                verdict = "agree"
            print("%-14s %-32s %14.6g %14.6g %+9.4f %6.3g  %s" %
                  (workload, metric, sa["median"], sb["median"], worse, bound, verdict))
    return 1 if bad else 0


def cmd_claim(args):
    _, specs = load_benchmark(args.benchmark)
    parent, change = load_runs(args.parent), load_runs(args.change)
    spec = specs.get(args.metric)
    if spec is None:
        sys.exit("compare.py: %s is not a metric of BENCHMARK.json" % args.metric)
    seeds = sorted(set(parent.get(args.workload, {})) & set(change.get(args.workload, {})))

    def value(runs, seed, metric):
        return float(runs[args.workload][seed]["metrics"][metric]["value"])

    pairs = [(value(parent, s, args.metric), value(change, s, args.metric)) for s in seeds]
    wins = sum(1 for p, c in pairs if worsening(p, c, spec["better"]) < 0)
    sp = summary([p for p, _ in pairs])
    sc = summary([c for _, c in pairs])
    gap = -worsening(sp["median"], sc["median"], spec["better"]) * abs(sp["median"])
    iqr = sp["q3"] - sp["q1"]
    ok_pairs = len(pairs) >= 10
    ok_wins = ok_pairs and wins >= 0.9 * len(pairs)
    ok_gap = gap > iqr
    print("claim %s on %s: %d pairs, change wins %d; parent median %.6g [%.6g, %.6g], "
          "change median %.6g [%.6g, %.6g]; gap %.6g vs parent IQR %.6g" %
          (args.metric, args.workload, len(pairs), wins, sp["median"], sp["q1"], sp["q3"],
           sc["median"], sc["q1"], sc["q3"], gap, iqr))
    print("  >= 10 pairs: %s   wins >= 9/10: %s   gap > parent IQR: %s" %
          (ok_pairs, ok_wins, ok_gap))

    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        for metric in metric_names({workload: parent[workload]}):
            s = specs.get(metric)
            if s is None or s["bound"] is None or (metric, workload) == (args.metric, args.workload):
                continue
            pv, cv = values(parent, workload, metric), values(change, workload, metric)
            spm, scm = summary(pv), summary(cv)
            worse = worsening(spm["median"], scm["median"], s["better"])
            noisy = metric != "setup_s" and max(spm["spread"], scm["spread"]) > s["bound"]
            all_better = pv and cv and all(worsening(p, c, s["better"]) < 0 for p in pv for c in cv)
            if worse > s["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif noisy and not all_better:
                verdict = "unresolved"
            else:
                continue
            print("  %-14s %-32s parent %.6g change %.6g (%+.4f, bound %.3g): %s" %
                  (workload, metric, spm["median"], scm["median"], worse, s["bound"], verdict))
    accepted = ok_pairs and ok_wins and ok_gap and regressions == 0
    print("claim %s" % ("MET" if accepted else "NOT MET"))
    return 0 if accepted else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK, help="path of BENCHMARK.json")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p = sub.add_parser("agree")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("claim")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--metric", required=True)
    p.add_argument("--workload", required=True)
    args = ap.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread, "agree": cmd_agree,
            "claim": cmd_claim}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
