#!/usr/bin/env bash
# Builds and runs the end-to-end serving benchmark (E21) and writes the
# results to BENCH_serving.json at the repo root.
#
# Usage: scripts/bench_serving.sh [build-dir] [extra bench_serving args...]
#
# The default run sweeps reader counts 1, 4, 8 against one writer on a
# 1M-triple sp2b corpus (QPS + p50/p95/p99 latency + snapshot lag per
# count) and finishes with a checked run at 100k triples that
# cross-validates a 25% sample of served answers against from-scratch
# evaluation on the same snapshot. The binary exits nonzero on any
# mismatch or error, which fails this script — the JSON is only
# published when every sampled answer agreed with its referee.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Benchmarks must never run instrumented: pin SWDB_SANITIZE=OFF so a
# stale sanitized cache in the build dir cannot leak into the numbers.
cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=OFF >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_serving

"$build_dir/bench/bench_serving" "$@" > "$repo_root/BENCH_serving.json"

python3 "$repo_root/scripts/bench_context.py" "$repo_root/BENCH_serving.json"
echo "wrote $repo_root/BENCH_serving.json"
