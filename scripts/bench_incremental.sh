#!/usr/bin/env bash
# Builds and runs the incremental-maintenance benchmark (E14), writes the
# results to BENCH_incremental.json at the repo root, and prints the
# delta-vs-full per-update speedups (the acceptance bar is ≥10× on the
# single-triple-insert series at the largest graph size).
#
# Usage: scripts/bench_incremental.sh [build-dir] [extra benchmark args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Benchmarks must never run instrumented: pin SWDB_SANITIZE=OFF so a
# stale sanitized cache in the build dir cannot leak into the numbers.
cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=OFF >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_incremental

"$build_dir/bench/bench_incremental" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  "$@" > "$repo_root/BENCH_incremental.json"

python3 "$repo_root/scripts/bench_context.py" \
  "$repo_root/BENCH_incremental.json"
echo "wrote $repo_root/BENCH_incremental.json"

python3 - "$repo_root/BENCH_incremental.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    results = {b["name"]: b for b in json.load(f)["benchmarks"]}

def speedups(full_prefix, fast_prefix, label):
    print(f"\n{label} (per-update speedup, full / incremental):")
    pairs = []
    for name, b in results.items():
        if name.startswith(full_prefix + "/"):
            n = name.split("/")[1]
            fast = results.get(f"{fast_prefix}/{n}")
            if fast:
                pairs.append((int(n), b["real_time"] / fast["real_time"]))
    for n, ratio in sorted(pairs):
        print(f"  n={n:<6} {ratio:8.1f}x")
    return sorted(pairs)

ins = speedups("BM_InsertSeriesFull", "BM_InsertSeriesDelta", "insert series")
speedups("BM_EraseSeriesFull", "BM_EraseSeriesDRed", "erase series")

largest_n, largest_ratio = ins[-1]
status = "PASS" if largest_ratio >= 10.0 else "FAIL"
print(f"\nacceptance (insert series, n={largest_n}): "
      f"{largest_ratio:.1f}x >= 10x ... {status}")
sys.exit(0 if largest_ratio >= 10.0 else 1)
EOF
