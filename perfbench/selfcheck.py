#!/usr/bin/env python3
"""Checks the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds 3] [--holdout-seconds 20]

1. Correctness gate: a run whose reference top-k is corrupted on purpose
   must report failed queries and exit nonzero.
2. Determinism: for one seed, the exact counts (bytes written and read,
   spill peak, rows spilled and eliminated, compares, write and read calls)
   must be identical across two untraced runs and a traced run, on every
   workload.
3. Hold-out seed: every end-to-end metric measured on a seed not used to
   tune the benchmark must lie within the metric's bound of the value on
   the tuning seed.

Prints one PASS/FAIL line per check; the exit status is 1 if any failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TUNING_SEED = 101
HOLDOUT_SEED = 90001
# Counts that repeat exactly for a seed (the driver's report "counts").
EXACT_COUNTS = ["bytes_written", "bytes_read", "spill_peak_bytes",
                "rows_spilled", "rows_eliminated_input",
                "rows_eliminated_spill", "runs_created", "compare_full",
                "compare_ovc_hits", "write_calls", "read_calls"]


def run(workload, seed, seconds, trace=0, extra=()):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"] if len(lines) >= 2 else {}
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--holdout-seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    holdout_seconds = args.holdout_seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True

    def check(name, passed, detail=""):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name} {detail}".rstrip())

    code, _, result = run(workloads[0], TUNING_SEED, 1,
                          extra=["--corrupt-reference"])
    check("gate: corrupted reference is caught",
          code != 0 and result.get("failed", 0) > 0
          and result.get("correct") is False,
          f"(exit {code}, failed {result.get('failed')})")

    for workload in workloads:
        runs = [run(workload, TUNING_SEED, args.seconds, trace)
                for trace in (0, 0, 1)]
        counts = [{c: r[1]["counts"][c]["value"] for c in EXACT_COUNTS}
                  for r in runs]
        differing = [c for c in EXACT_COUNTS
                     if len({cs[c] for cs in counts}) != 1]
        check(f"determinism: {workload} counts repeat (untraced x2, traced)",
              all(r[0] == 0 for r in runs) and not differing,
              f"differing: {differing}" if differing else "")

    for workload in workloads:
        _, _, base = run(workload, TUNING_SEED, holdout_seconds)
        _, _, held = run(workload, HOLDOUT_SEED, holdout_seconds)
        outside = []
        for metric in spec["end_to_end"]:
            a = base["metrics"][metric["name"]]["value"]
            b = held["metrics"][metric["name"]]["value"]
            if abs(b - a) > metric["bound"] * abs(a):
                outside.append(f"{metric['name']} {a:.4g}->{b:.4g}")
        check(f"hold-out seed: {workload} within bounds",
              base.get("correct") and held.get("correct") and not outside,
              f"outside: {outside}" if outside else "")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
