#!/usr/bin/env python3
"""Steadiness check: run every workload over seeds 1..10 and report the spread.

Usage, from the repository root:

    python3 perfbench/steadiness.py

For each workload of BENCHMARK.json it runs `perfbench/run.py --trace 0`
once per seed with the benchmark's run_seconds, then prints, per end-to-end
metric, the median and the spread: the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median. It
exits 1 if any metric's spread is not below a third of its bound.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in SEEDS]
        print(f"{workload}: seeds {SEEDS.start}..{SEEDS.stop - 1}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady = steady and ok
            print(f"  {name:20s} median {med:14.6f} spread {spread:8.4f} "
                  f"bound {bound:.3f} {'ok' if ok else 'TOO WIDE'}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
