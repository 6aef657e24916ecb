#!/usr/bin/env bash
# Builds and runs the columnar-storage benchmark (E17): the matcher on a
# repeated-position (X, p, X) pattern, plus spine lookups and pre-answer
# joins on a 200k sp2b closure and path requests on its data graph.
# Writes the results to BENCH_scan.json at the repo root.
#
# Usage: scripts/bench_scan.sh [build-dir] [extra benchmark args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Benchmarks must never run instrumented: pin SWDB_SANITIZE=OFF so a
# stale sanitized cache in the build dir cannot leak into the numbers.
cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=OFF >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_scan

"$build_dir/bench/bench_scan" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  "$@" > "$repo_root/BENCH_scan.json"

python3 "$repo_root/scripts/bench_context.py" "$repo_root/BENCH_scan.json"
echo "wrote $repo_root/BENCH_scan.json"
