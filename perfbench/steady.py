#!/usr/bin/env python3
"""Steadiness check for the paper-scale benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
                                [--trace]

Run from the repository root. For each set and workload it runs
perfbench/run.py --runs times, on seeds 1, 2, ..., --runs (every set uses
the same seeds), for BENCHMARK.json's run_seconds. Per end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median.

It fails (exit 1) when a spread exceeds the metric's bound in BENCHMARK.json, or when a later set's median is worse than the
first set's by more than the bound. It warns when a spread is above a
third of its bound. With --trace it also makes one traced run per workload
and set and prints the per-layer metrics and the tracing overhead
(1 - traced rounds_per_s / untraced rounds_per_s on the same seed).
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Flush each line so progress shows while the runs go on.
print = functools.partial(print, flush=True)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect result: %s" % " ".join(cmd))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (<= 0: not worse)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv):
    spec = load_spec()
    all_workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workloads", default=",".join(all_workloads))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in all_workloads:
            parser.error("unknown workload %s" % w)
    if args.runs < 2 or args.sets < 1:
        parser.error("need --runs >= 2 and --sets >= 1")

    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    seeds = list(range(1, args.runs + 1))
    failures = []
    first_medians = {}
    for set_index in range(args.sets):
        for workload in workloads:
            runs = [run_once(workload, seed, seconds, False) for seed in seeds]
            print("\n[set %d] %s: %d runs, seeds %d..%d, %d s each" %
                  (set_index + 1, workload, len(runs), seeds[0], seeds[-1],
                   seconds))
            print("  %-22s %14s %14s %14s %8s %6s" %
                  ("metric", "median", "q1", "q3", "spread", "bound"))
            for m in metrics:
                name = m["name"]
                median, q1, q3, spread = summarize([r[name] for r in runs])
                flag = ""
                if spread > m["bound"]:
                    flag = "FAIL spread"
                    failures.append("%s %s spread %.3f > %.3f" %
                                    (workload, name, spread, m["bound"]))
                elif spread > m["bound"] / 3:
                    flag = "warn: spread > bound/3"
                key = (workload, name)
                if set_index == 0:
                    first_medians[key] = median
                else:
                    worse = worse_by(first_medians[key], median, m["better"])
                    if worse > m["bound"]:
                        flag += " FAIL median moved %.3f" % worse
                        failures.append("%s %s median worse by %.3f > %.3f" %
                                        (workload, name, worse, m["bound"]))
                print("  %-22s %14.6g %14.6g %14.6g %8.4f %6.2f %s" %
                      (name, median, q1, q3, spread, m["bound"], flag))
            if args.trace:
                traced = run_once(workload, seeds[0], seconds, True)
                print("  traced run (seed %d):" % seeds[0])
                for name in sorted(traced):
                    print("    %-42s %16.6g" % (name, traced[name]))
                untraced = runs[0]["rounds_per_s"]
                print("  tracing overhead: %.3f (traced %.6g vs untraced "
                      "%.6g rounds/s, seed %d)" %
                      (1 - traced["trace.rounds_per_s"] / untraced,
                       traced["trace.rounds_per_s"], untraced, seeds[0]))

    if failures:
        print("\nNOT STEADY:")
        for f in failures:
            print("  " + f)
        return 1
    print("\nsteady: every spread and median shift is within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
