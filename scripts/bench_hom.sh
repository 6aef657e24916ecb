#!/usr/bin/env bash
# Builds and runs the homomorphism-kernel benchmark (E13) and writes the
# results to BENCH_hom.json at the repo root.
#
# Usage: scripts/bench_hom.sh [build-dir] [extra benchmark args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Benchmarks must never run instrumented: pin SWDB_SANITIZE=OFF so a
# stale sanitized cache in the build dir cannot leak into the numbers.
cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=OFF >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_hom

"$build_dir/bench/bench_hom" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  "$@" > "$repo_root/BENCH_hom.json"

python3 "$repo_root/scripts/bench_context.py" "$repo_root/BENCH_hom.json"
echo "wrote $repo_root/BENCH_hom.json"
