#!/usr/bin/env bash
# Builds and runs the batched multi-query evaluation benchmark (E20)
# and writes the results to BENCH_batch.json at the repo root.
#
# Usage: scripts/bench_batch.sh [build-dir] [extra benchmark args...]
# E20 reads BatchedSingleThread against SequentialReplay at N = 100k on
# the 64-query overlapping mix: the speedup ViewKey dedupe alone buys.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Benchmarks must never run instrumented: pin SWDB_SANITIZE=OFF so a
# stale sanitized cache in the build dir cannot leak into the numbers.
cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=OFF >/dev/null
cmake --build "$build_dir" -j --target bench_batch

"$build_dir/bench/bench_batch" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  "$@" > "$repo_root/BENCH_batch.json"

python3 "$repo_root/scripts/bench_context.py" "$repo_root/BENCH_batch.json"
echo "wrote $repo_root/BENCH_batch.json"
