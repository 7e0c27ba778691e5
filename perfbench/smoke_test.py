#!/usr/bin/env python3
"""Short-budget smoke test of the benchmark, one check set per workload.

    python3 perfbench/smoke_test.py

Runs every workload with --smoke budgets on two seeds, untraced and traced,
and checks that each run prints every metric BENCHMARK.json names (and no
other) with a unit, that no job fails, and that changing the seed changes
the plan digest but not the metric names.  Exits non-zero on any failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    digest = re.search(r"^plan digest ([0-9a-f]{16})$", proc.stdout, re.M)
    if digest is None:
        raise AssertionError(f"{workload} seed {seed}: no plan digest printed")
    return result, digest.group(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            before = len(failures)
            digests, names = {}, {}
            for seed in SEEDS:
                tag = f"{workload} seed={seed} trace={trace}"
                try:
                    result, digests[seed] = run(workload, seed, trace)
                except (AssertionError, ValueError, IndexError) as e:
                    failures.append(f"{tag}: {e}")
                    continue
                metrics = result["metrics"]
                names[seed] = sorted(metrics)
                if sorted(metrics) != sorted(expected[trace]):
                    failures.append(f"{tag}: metric names {sorted(metrics)}")
                for name, m in metrics.items():
                    if not isinstance(m.get("value"), (int, float)) or not m.get("unit"):
                        failures.append(f"{tag}: {name} lacks a value or a unit")
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    failures.append(f"{tag}: correct={result['correct']} "
                                    f"failed={result['failed']}/{result['attempted']}")
            if len(digests) == len(SEEDS):
                if digests[SEEDS[0]] == digests[SEEDS[1]]:
                    failures.append(f"{workload} trace={trace}: digest ignores the seed")
                if names[SEEDS[0]] != names[SEEDS[1]]:
                    failures.append(f"{workload} trace={trace}: metric names depend on the seed")
            print(f"{workload} trace={trace}: {'ok' if len(failures) == before else 'FAILED'}",
                  flush=True)
    for f in failures:
        print("FAIL", f)
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
