#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly and prints each end-to-end
metric's median, quartiles and spread, then compares two sets of runs
against the bounds in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --workload paper_cold

It makes two sets of ten runs, each run with its own seed (1-10, then
11-20). A metric's spread is the distance between its first and third
quartile (statistics.quantiles(values, n=4)) as a share of its median. A
set is accepted when every spread stays within the metric's bound; a
metric is steady when its spread is below a third of its bound. Two sets
agree when, for every metric, the second set's median is not worse than
the first's by more than the bound, and the share of failed operations is
the same in both. The exit status is 0 when every set is accepted and the
sets agree.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10
SET_SEEDS = (range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_set(bench, workload, seeds):
    results = []
    for seed in seeds:
        result = run_once(bench["command"], workload, seed, bench["run_seconds"])
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"  seed {seed}: failed {result['failed']}/{result['attempted']} {values}",
              flush=True)
        results.append(result)
    return results


def summarize(bench, results, label):
    print(f"{label}:")
    medians = {}
    accepted = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = metric["bound"]
        accepted &= spread <= bound
        medians[name] = med
        verdict = ("steady" if spread < bound / 3
                   else "within bound" if spread <= bound else "OUT OF BOUND")
        print(f"  {name:12s} median {med:.6g} {metric['unit']:4s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} (bound {bound}, steady below {bound / 3:.4f}) {verdict}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share per run: {sorted(shares)}")
    return medians, accepted, shares


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return second / first - 1
    return first / second - 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    first = run_set(bench, args.workload, SET_SEEDS[0])
    medians1, accepted1, shares1 = summarize(bench, first, "set 1")
    second = run_set(bench, args.workload, SET_SEEDS[1])
    medians2, accepted2, shares2 = summarize(bench, second, "set 2")
    ok = accepted1 and accepted2 and len(shares1) == 1 and shares1 == shares2
    print("set 2 against set 1:")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        worse = worse_by(metric, medians1[name], medians2[name])
        within = worse <= metric["bound"]
        ok &= within
        print(f"  {name:12s} {medians1[name]:.6g} -> {medians2[name]:.6g}: "
              f"worse by {worse:+.4f} (bound {metric['bound']}) "
              f"{'ok' if within else 'OUT OF BOUND'}")
    print("ACCEPTED" if ok else "REFUSED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
