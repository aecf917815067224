#!/usr/bin/env python3
"""Steadiness report: run the benchmark over several seeds and show how
much each metric spreads.

    python3 perfbench/steady.py --seeds 1-10 [--workloads sweep,...]
                                [--trace 0|1] [--out FILE.json]
    python3 perfbench/steady.py --load FILE.json [FILE.json ...]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, i.e.
(Q3 - Q1) / median. An end-to-end metric whose spread exceeds its bound
in BENCHMARK.json is marked UNRESOLVED; one above a third of its bound
is marked "noisy". With several --load files (two sets of runs of the
same code) it also compares each metric's median between the first and
the last set against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(bench, runs):
    """runs: {workload: [result, ...]}; returns unresolved count."""
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    unresolved = 0
    for workload, results in runs.items():
        ok = [r for r in results if r]
        failed = sum(1 for r in results if not r or not r["correct"])
        print("\n== %s: %d runs, %d failed or incorrect" %
              (workload, len(results), failed))
        names = sorted({n for r in ok for n in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for r in ok
                      if name in r["metrics"]]
            unit = ok[0]["metrics"][name]["unit"]
            if len(values) < 2:
                continue
            med, q1, q3, share = spread(values)
            mark = ""
            if name in bounds and name != "setup_s":
                bound = bounds[name]["bound"]
                if share > bound:
                    mark = "UNRESOLVED (bound %.2f)" % bound
                    unresolved += 1
                elif share > bound / 3:
                    mark = "noisy (bound %.2f)" % bound
            print("  %-38s %12.6g %-6s q1 %12.6g q3 %12.6g spread %6.3f %s"
                  % (name, med, unit, q1, q3, share, mark))
    return unresolved


def compare(bench, first, last):
    """Median drift between two sets of runs, per workload and metric."""
    worse = 0
    print("\n== median drift, first set -> last set")
    for m in bench["end_to_end"]:
        for workload in first:
            a = [r["metrics"][m["name"]]["value"] for r in first[workload] if r]
            b = [r["metrics"][m["name"]]["value"] for r in last.get(workload, [])
                 if r]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "WORSE" if change > m["bound"] else ""
            worse += 1 if flag else 0
            print("  %-12s %-22s %12.6g -> %12.6g  worse by %+7.3f %s"
                  % (workload, m["name"], ma, mb, change, flag))
    return worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--load", nargs="+")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    if args.load:
        sets = []
        for path in args.load:
            with open(path) as f:
                sets.append(json.load(f))
        merged = {}
        for s in sets:
            for w, rs in s.items():
                merged.setdefault(w, []).extend(rs)
        bad = report(bench, merged)
        if len(sets) > 1:
            bad += compare(bench, sets[0], sets[-1])
        return 1 if bad else 0

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in seed_list(args.seeds):
            r = run_once(bench, w, seed, args.trace)
            runs[w].append(r)
            print("%s seed %d: %s" % (w, seed,
                  "ok" if r and r["correct"] else "FAILED"), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f)
    return 1 if report(bench, runs) else 0


if __name__ == "__main__":
    sys.exit(main())
