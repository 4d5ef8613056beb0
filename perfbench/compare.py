"""Run sets of benchmark runs and report each end-to-end metric's spread.

    python3 perfbench/compare.py [--runs 10] [--sets 2] [--workloads a,b] [--first-seed 0]

Run from the repository root. Every run uses another seed. For each
workload and metric it prints the median of each set, the spread (distance
between the first and third quartile, as a share of the median) and the
change of the second set's median against the first, in the metric's
worse direction, next to the metric's bound from BENCHMARK.json. A spread
at or above a third of the bound is flagged, as is any spread or shift
above the bound and any difference in the share of failed operations
between runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(command, workload, seed, seconds) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        capture_output=True, text=True)
    took = time.monotonic() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed={seed} {took:.1f}s correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            print(f"{workload}: set {s + 1}", flush=True)
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            sets.append([run_once(spec["command"], workload, seed, spec["run_seconds"])
                         for seed in seeds])
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        print(f"{workload}: failed shares per set {shares}; "
              f"all correct: {all(r['correct'] for runs in sets for r in runs)}")
        ok &= all(r["correct"] for runs in sets for r in runs) and len(set().union(*shares)) == 1
        print(f"  {'metric':40s} {'median1':>12s} {'median2':>12s} {'spread1':>8s} "
              f"{'spread2':>8s} {'shift':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            per_set = [[r["metrics"][m["name"]]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) if len(v) > 1 and medians[0] else 0.0 for v in per_set]
            bound = m["bound"]
            shift = 0.0
            if len(sets) == 2 and medians[0]:
                shift = (medians[1] - medians[0]) / medians[0]
                shift = shift if m["better"] == "lower" else -shift
            flag = " wide" if max(spreads) >= bound / 3 else ""
            if max(spreads) > bound or shift > bound:
                flag, ok = " FAIL", False
            print(f"  {m['name']:40s} {medians[0]:12.6g} {medians[-1]:12.6g} {spreads[0]:8.2%} "
                  f"{spreads[-1]:8.2%} {shift:+8.2%} {bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
