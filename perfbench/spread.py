#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs each workload once per seed and
prints, for every end-to-end metric, the median over the runs and the
distance between the first and third quartiles as a share of that median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 [--workload hist-uniform ...]
        [--seconds 20] [--first-seed 101] [--json OUT]

A metric is steady when its spread stays below a third of its bound
(setup_s is exempt from the spread rule but not from the median
comparison between two sets of runs). The exit status is 1 when a run fails
or a spread reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not last["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed: {last}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="also write the raw values here")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    raw = {}
    worst_ok = True
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, args.seconds)
                for i in range(args.seeds)]
        raw[workload] = runs
        print(f"{workload}: {len(runs)} runs")
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            ratio = spread / metric["bound"]
            exempt = metric["name"] == "setup_s"
            flag = "ok" if ratio < 1 / 3 else ("wide" if ratio < 1 else "FAIL")
            if exempt:
                flag += " (exempt)"
            elif ratio >= 1:
                worst_ok = False
            print(f"  {metric['name']:34s} median {median:14.6g} "
                  f"{metric['unit']:6s} spread {spread:7.4f} "
                  f"bound {metric['bound']:.2f} {flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
