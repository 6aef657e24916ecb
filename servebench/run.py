#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the root of the repository):

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --selftest

The C++ driver (servebench.cc) is configured and built with CMake into
.bench_build/servebench on every call (a no-op when nothing changed).
Its human-readable report goes to standard error; the last line of
standard output is the driver's JSON result. The exit code is the
driver's: nonzero on any failed check. Traced runs also write their
spans to .bench_build/servebench/traces/.

The library's shared pool (SWDB_THREADS) is pinned to min(4, nproc)
and echoed to standard error.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(jobs):
    if not (ROOT / "src" / "query" / "database.h").is_file():
        print("servebench: library sources not found under", ROOT / "src",
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs)])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("servebench: build step failed:", " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    threads = min(4, os.cpu_count() or 1)
    if not build(threads):
        return 1

    env = dict(os.environ, SWDB_THREADS=str(threads))
    print(f"servebench: SWDB_THREADS={threads}", file=sys.stderr)
    binary = str(BUILD / "servebench")
    if args.selftest:
        return subprocess.run([binary, "--selftest"], env=env).returncode

    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(traces)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("servebench: driver printed no result", file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
