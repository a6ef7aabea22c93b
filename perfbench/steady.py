"""Steadiness report: how much each end-to-end metric moves run to run.

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads designer,serve]

Runs every workload ``--runs`` times per set, each run with another
seed, and repeats the whole set ``--sets`` times one after the other,
so the sets are taken at different times.  For each metric it prints
the median, the interquartile range and the min-max range as shares of
the median (the worst over the sets), and how far each later set's
median lies from the first set's, then compares the spread with the metric's bound in
``BENCHMARK.json``.  A metric passes when its IQR stays within the bound
and no later median is worse than the first by more than the bound.
Exits 1 if any metric fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout[-2000:]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, IQR / median, (max - min) / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) or 1.0
    return median, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    failures = 0
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            runs = [
                run_once(workload, args.first_seed + i, args.seconds, 0)
                for i in range(args.runs)
            ]
            sets.append(runs)
        print(f"\n{workload}: {args.sets} set(s) x {args.runs} runs, {args.seconds} s each")
        print(f"  {'metric':<16} {'median':>12} {'IQR':>7} {'range':>7} "
              f"{'bound':>6} {'set drift':>10}  verdict")
        for name, metric in metrics.items():
            medians = []
            iqrs = []
            ranges = []
            for runs in sets:
                median, iqr, full = spread([run[name] for run in runs])
                medians.append(median)
                iqrs.append(iqr)
                ranges.append(full)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = max(
                (sign * (m - medians[0]) / (abs(medians[0]) or 1.0) for m in medians[1:]),
                default=0.0,
            )
            worst_iqr = max(iqrs)
            ok = drift <= metric["bound"] and (
                name == "setup_s" or worst_iqr <= metric["bound"])
            failures += not ok
            print(f"  {name:<16} {medians[0]:>12.5g} {worst_iqr:>7.1%} {max(ranges):>7.1%} "
                  f"{metric['bound']:>6.0%} {drift:>+10.1%}  "
                  f"{'ok' if ok else 'FAIL'}"
                  f"{'' if worst_iqr <= metric['bound'] / 3 else ' (IQR above bound/3)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
