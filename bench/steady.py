#!/usr/bin/env python3
"""Steadiness check: run the workloads repeatedly and report the spread.

Usage, from the root of a checkout:

    python3 bench/steady.py --runs 10 --sets 2

Each set runs every workload of BENCHMARK.json ``--runs`` times for its
``run_seconds``, each time with another seed and in a fresh process,
reversing the order of the workloads on every other run. For each
end-to-end metric of each workload it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. It exits with 1 if a spread exceeds a third of its
bound, the level the benchmark aims for. With two sets it also prints how far the
second set's median moved from the first, in the metric's worse direction,
and whether the share of failed operations is the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarize(values: list) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = SPEC["end_to_end"]
    results = {}  # (set, workload) -> list of result objects
    for s in range(args.sets):
        for r in range(args.runs):
            seed = args.first_seed + s * args.runs + r
            order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
            for workload in order:
                result = run_once(workload, seed)
                results.setdefault((s, workload), []).append(result)
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in metrics)
                print(f"set {s + 1} run {r + 1} seed {seed} {workload}: {values} "
                      f"failed {result['failed']}/{result['attempted']} "
                      f"correct {result['correct']} wall {result['wall_s']:.1f} s",
                      flush=True)

    status = 0
    print()
    print("| set | workload | metric | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for (s, workload), runs in sorted(results.items()):
        for m in metrics:
            values = [run["metrics"][m["name"]]["value"] for run in runs]
            med, q1, q3, spread = summarize(values)
            print(f"| {s + 1} | {workload} | {m['name']} ({m['unit']}) | {med:.4g} | "
                  f"{q1:.4g} | {q3:.4g} | {spread:.3f} | {m['bound']} | "
                  f"{spread / m['bound']:.2f} |")
            if spread > m["bound"] / 3:
                status = 1
        if not all(run["correct"] for run in runs):
            print(f"| {s + 1} | {workload} | some runs were not correct |")
            status = 1
    if args.sets == 2:
        print()
        print("| workload | metric | median 1 | median 2 | worse by | bound | "
              "failed share 1 | failed share 2 |")
        print("|---|---|---|---|---|---|---|---|")
        for workload in WORKLOADS:
            first, second = results[(0, workload)], results[(1, workload)]
            shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                      for runs in (first, second)]
            for m in metrics:
                a = statistics.median(r["metrics"][m["name"]]["value"] for r in first)
                b = statistics.median(r["metrics"][m["name"]]["value"] for r in second)
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print(f"| {workload} | {m['name']} | {a:.4g} | {b:.4g} | "
                      f"{worse:+.3f} | {m['bound']} | {shares[0]:.4f} | {shares[1]:.4f} |")
                if worse > m["bound"]:
                    status = 1
            if shares[0] != shares[1]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
