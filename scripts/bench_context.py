#!/usr/bin/env python3
"""Annotate a Google-Benchmark JSON file with host context, in place.

Adds to the "context" header: the CPU model string and the core count,
so BENCH_*.json runs are comparable across machines.

Usage: bench_context.py FILE.json
"""
import json
import os
import sys


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    path = sys.argv[1]
    with open(path) as f:
        doc = json.load(f)
    ctx = doc.setdefault("context", {})
    ctx["cpu_model"] = cpu_model()
    ctx["num_cores"] = os.cpu_count() or 0
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
