"""Two separate, interleaved sets of runs of every workload.

    python3 perfbench/steadiness.py

Five runs per set of every workload in ``BENCHMARK.json``, each of its
``run_seconds``.  Set A uses seeds 101-105, set B seeds 201-205; the
runs alternate A, B per workload so slow drift of the machine falls on
both sets alike.  For every end-to-end metric it prints each set's
median and quartiles, the difference between the set medians, and the
spread of all ten runs (interquartile range over the median) against
the metric's bound in ``BENCHMARK.json``.  This is the evidence for the
bounds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 5  # per set and workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, dict[str, list[dict]]] = {}
    for i in range(RUNS):
        for workload in (w["name"] for w in spec["workloads"]):
            for label, seed in (("A", 101 + i), ("B", 201 + i)):
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=False,
                )
                result = json.loads(done.stdout.strip().splitlines()[-1])
                results.setdefault(workload, {}).setdefault(label, []).append(result)
                print(f"# {workload} set {label} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    print(f"{'workload':14s} {'metric':13s} {'A median':>11s} {'A q1..q3':>23s} {'B median':>11s} "
          f"{'B q1..q3':>23s} {'B-A':>7s} {'spread':>7s} {'bound':>6s}")
    for workload, sets in results.items():
        for metric in bounds:
            a = [r["metrics"][metric]["value"] for r in sets["A"] if metric in r["metrics"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"] if metric in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = _quartiles(a), _quartiles(b)
            q1, q2, q3 = _quartiles(a + b)
            print(f"{workload:14s} {metric:13s} {qa[1]:11.4f} {qa[0]:11.4f}..{qa[2]:<11.4f} {qb[1]:11.4f} "
                  f"{qb[0]:11.4f}..{qb[2]:<11.4f} {(qb[1] - qa[1]) / qa[1]:+7.3f} {(q3 - q1) / q2:7.3f} "
                  f"{bounds[metric]:6.2f}")
        shares = {label: {r["failed"] / r["attempted"] for r in runs} for label, runs in sets.items()}
        print(f"{workload:14s} failed share per run: A {sorted(shares['A'])} B {sorted(shares['B'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
