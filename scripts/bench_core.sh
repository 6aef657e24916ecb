#!/usr/bin/env bash
# Builds and runs the core/nf benchmark (E4 plus the sequential
# multi-component series) and writes the results to BENCH_core.json at
# the repo root.
#
# Usage: scripts/bench_core.sh [build-dir] [extra benchmark args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Benchmarks must never run instrumented: pin SWDB_SANITIZE=OFF so a
# stale sanitized cache in the build dir cannot leak into the numbers.
cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=OFF >/dev/null
cmake --build "$build_dir" -j --target bench_core

"$build_dir/bench/bench_core" \
  --benchmark_format=json \
  --benchmark_min_time=0.1 \
  "$@" > "$repo_root/BENCH_core.json"

python3 "$repo_root/scripts/bench_context.py" "$repo_root/BENCH_core.json"
echo "wrote $repo_root/BENCH_core.json"

