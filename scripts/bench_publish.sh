#!/usr/bin/env bash
# Builds and runs the snapshot-publication benchmark (E18) and writes
# the results to BENCH_publish.json at the repo root.
#
# Usage: scripts/bench_publish.sh [build-dir] [extra benchmark args...]
# The acceptance check of this PR reads PublishCowCopy/1000000 vs
# PublishFullCopyBaseline/1000000: the COW copy must be >= 10x cheaper.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Benchmarks must never run instrumented: pin SWDB_SANITIZE=OFF so a
# stale sanitized cache in the build dir cannot leak into the numbers.
cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=OFF >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_publish

"$build_dir/bench/bench_publish" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  "$@" > "$repo_root/BENCH_publish.json"

python3 "$repo_root/scripts/bench_context.py" "$repo_root/BENCH_publish.json"
echo "wrote $repo_root/BENCH_publish.json"
