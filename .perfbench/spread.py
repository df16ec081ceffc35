#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

For every workload and end-to-end metric it prints the median of the
runs and their spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median. With ``--compare`` it checks the A/A agreement of two saved sets
of runs of the same code: the second set's median may be worse than the
first's by no more than the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 .perfbench/spread.py --runs 10 --out runs.json
    python3 .perfbench/spread.py --workloads faas-day --runs 5
    python3 .perfbench/spread.py --runs 10 --out runs2.json
    python3 .perfbench/spread.py --compare runs.json runs2.json

Exit status 1 if a run fails, reports ``correct: false``, a spread
exceeds its bound (``setup_s`` excepted), or two sets disagree.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative if better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def aa_failures(set_a, set_b, end_to_end):
    """Metrics whose second-set median is worse than the first by more
    than their bound. `set_a`/`set_b` map metric name to a list of values."""
    failures = []
    for metric in end_to_end:
        name = metric["name"]
        first = statistics.median(set_a[name])
        second = statistics.median(set_b[name])
        share = worse_by(first, second, metric["better"])
        if share > metric["bound"]:
            failures.append((name, first, second, share))
    return failures


def spread_failures(values_by_metric, end_to_end):
    """Metrics (other than setup_s) whose spread exceeds their bound."""
    failures = []
    for metric in end_to_end:
        name = metric["name"]
        if name == "setup_s":
            continue
        share = spread(values_by_metric[name])
        if share > metric["bound"]:
            failures.append((name, share))
    return failures


def values_by_workload(raw, end_to_end):
    """Metric values per workload from a file written by --out."""
    return {
        workload: {m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                   for m in end_to_end}
        for workload, results in raw.items()
    }


def compare(path_a, path_b, end_to_end):
    """A/A check of two saved sets of runs; True when they agree."""
    with open(path_a) as f:
        set_a = values_by_workload(json.load(f), end_to_end)
    with open(path_b) as f:
        set_b = values_by_workload(json.load(f), end_to_end)
    ok = True
    for workload in set_a:
        failures = aa_failures(set_a[workload], set_b[workload], end_to_end)
        print(f"\n{workload}")
        for metric in end_to_end:
            name = metric["name"]
            first = statistics.median(set_a[workload][name])
            second = statistics.median(set_b[workload][name])
            print(f"  {name:22} {first:<14.6g} -> {second:<14.6g} worse by "
                  f"{worse_by(first, second, metric['better']):7.2%} (bound {metric['bound']:.0%})")
        print(f"  A/A agreement: {'ok' if not failures else 'FAILED'}")
        ok = ok and not failures
    return ok


def run_once(bench, workload, seed, trace):
    argv = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--first-seed", type=int, default=2023)
    parser.add_argument("--out", help="write every result line here as JSON")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON",
                        help="A/A-check two files written by --out instead of running")
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    if args.compare:
        return 0 if compare(*args.compare, bench["end_to_end"]) else 1
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    end_to_end = bench["end_to_end"]

    ok = True
    raw = {}
    for workload in workloads:
        values = {m["name"]: [] for m in end_to_end}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(bench, workload, seed, 0)
            raw.setdefault(workload, []).append({"seed": seed, **result})
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload} ({args.runs} seeds)")
        for metric in end_to_end:
            name = metric["name"]
            share = spread(values[name])
            flag = "ok" if share <= metric["bound"] / 3 else (
                "within bound" if share <= metric["bound"] else "TOO NOISY")
            print(f"  {name:22} median {statistics.median(values[name]):<14.6g} "
                  f"spread {share:7.2%} (bound {metric['bound']:.0%}) {flag}")
        ok = ok and not spread_failures(values, end_to_end)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
