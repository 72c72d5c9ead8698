#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--trace 0|1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) with the
run_seconds of BENCHMARK.json, then prints, for every metric, the median and
the interquartile range as a share of the median (statistics.quantiles,
n=4), next to the metric's bound.  A benchmark is steady when every spread
but setup_s's stays well inside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(a.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{out.stdout}")
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
            flush=True)

    print(f"\n{'metric':34s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        rel = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(k)
        print(f"{k:34s} {med:12.5g} {rel:8.4f} "
              f"{'' if b is None else format(b, '6.3f')}")


if __name__ == "__main__":
    main()
