#!/usr/bin/env python3
"""Builds and runs the paper-scale cmfs benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and compiles the
cmfs libraries and the benchmark binary (Release) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs rebuild incrementally.
Build output goes to stderr, so the last line on stdout is the binary's
JSON result. A traced run (--trace 1) also writes its spans as Chrome
trace-event JSON under <build dir>/spans/.

Exits non-zero, without a result line, if the sources are missing or do
not build or the binary's result is malformed. A failed correctness check
still ends with the result line, "correct": false, and the binary's exit
status (1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-degraded", "churn-cache-rebuild", "fig6-capacity")
RUN_TIMEOUT_S = 170


def non_negative_int(text):
    value = int(text, 10)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def positive_seconds(text):
    value = float(text)
    if not 0 < value <= 3600:
        raise argparse.ArgumentTypeError("must be in (0, 3600]")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="paper-scale cmfs benchmark", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative_int)
    parser.add_argument("--seconds", required=True, type=positive_seconds)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "cmfs_perfbench")


def expected_metrics(trace):
    """(name -> unit) the result must carry, from BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def complete_result(line, trace):
    """Returns the binary's result line, completed from BENCHMARK.json.

    A per-layer metric the workload's layers do not produce, and any
    metric a failed run did not get to, reads 0. Raises ValueError unless
    the result is well formed and, when correct, carries exactly the
    metrics BENCHMARK.json lists, with their units.
    """
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be true or false")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    extra = sorted(set(got) - set(want))
    wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    missing = sorted(set(want) - set(got))
    if extra or wrong or (missing and result["correct"] and not trace):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, wrong unit %s" % (missing, extra, wrong))
    for name in missing:
        result["metrics"][name] = {"value": 0, "unit": want[name]}
    result["metrics"] = dict(sorted(result["metrics"].items()))
    return json.dumps(result)


def main(argv):
    args = parse_args(argv)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = complete_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        print("perfbench: malformed result: %s" % err, file=sys.stderr)
        return 1
    print(result)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
