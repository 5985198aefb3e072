#!/usr/bin/env python3
"""Builds the top-k benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload hist-uniform --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this file's directory. The
driver is built with CMake into .bench_build/perfbench (the first run
compiles the library, later runs only check that the build is current), and
spills into .bench_build while it runs. Standard output ends with two JSON
lines: a full report keyed `<workload>/<metric>` with units, sample counts,
exact counts and the environment, and then the result line
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json lists for the chosen --trace mode. The exit status is 0 only
when every query returned the reference rows and every listed metric was
measured.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
# A run must end within this many seconds of starting, build excluded.
RUN_LIMIT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the driver was built from."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(BENCH_DIR.rglob("*")):
        if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one reference id, to prove the gate fires")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {names}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")
    started = time.monotonic()
    spill_dir = ROOT / ".bench_build" / f"spill-{os.getpid()}"
    command = [str(BINARY), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--spill-dir={spill_dir}",
               f"--revision={revision()}"]
    if args.corrupt_reference:
        command.append("--corrupt-reference=true")
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=max(30, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail("benchmark driver timed out")
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit status {proc.returncode})")
    doc = json.loads(lines[-1])

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    missing = []
    for wanted in spec[group]:
        got = doc["metrics"].get(wanted["name"])
        if got is None or got["unit"] != wanted["unit"]:
            missing.append(wanted["name"])
            continue
        metrics[wanted["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)

    report = {key: doc[key] for key in doc if key != "metrics"}
    report["metrics"] = {f"{args.workload}/{name}": value
                         for name, value in doc["metrics"].items()}
    print(json.dumps({"report": report}))
    correct = bool(doc["correct"]) and not missing and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
