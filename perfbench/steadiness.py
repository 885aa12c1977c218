"""Steadiness of the benchmark: many seeds per workload, spread per metric.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--first-seed 1]

Runs ``perfbench/run.py`` on every workload of ``BENCHMARK.json`` for
ten seeds from ``--first-seed``, one run after the other, each with the
benchmark's ``run_seconds``. It prints for every end-to-end metric its
median, first and third quartile (``statistics.quantiles(values,
n=4)``) and the spread ``(q3 - q1) / median``, beside the metric's
bound. The raw per-run results go to
``perfbench/steadiness/seeds-<first>-<last>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seeds per workload in one set.
RUNS = 10


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + RUNS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = results[workload] = []
        for seed in seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                return 1
            result = json.loads(lines[-1])
            record = json.loads(lines[0].removeprefix("record "))
            runs.append({"seed": seed, "wall_s": wall, "record": record,
                         **result})
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  f"{result['attempted']} requests", flush=True)
        print(f"\n{workload}")
        print(f"  {'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
              f" {'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:18s} {median:10.4f} {q1:10.4f} {q3:10.4f}"
                  f" {spread:7.3f} {bound:6.2f}")
        walls = [run["wall_s"] for run in runs]
        print(f"  wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s\n", flush=True)
    out = (ROOT / "perfbench" / "steadiness"
           / f"seeds-{seeds[0]}-{seeds[-1]}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"worst spread / bound (setup_s excepted): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
