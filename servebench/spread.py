#!/usr/bin/env python3
"""Run-to-run spread of the serving benchmark's metrics.

Usage (from the root of the repository):

    python3 servebench/spread.py --workload ingest --seeds 1-10 [--seconds S] [--trace 0]

Runs servebench/run.py once per seed, one run at a time, and prints for
every metric its median, first and third quartile and the spread
(Q3 - Q1) / median, with quartiles as statistics.quantiles(values, n=4)
gives them. --seconds defaults to run_seconds of BENCHMARK.json. With
--bounds it also compares each end-to-end spread with a third of its
bound there.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--bounds", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(bench["run_seconds"])

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds,
             "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:8]),
            file=sys.stderr)

    bounds = {}
    if args.bounds:
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        line = (f"{name:40s} median {med:12.5g} {units[name]:6s} "
                f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.3f}")
        if name in bounds:
            ok = spread < bounds[name] / 3
            line += f"  bound {bounds[name]:.2f} {'ok' if ok else 'WIDE'}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
