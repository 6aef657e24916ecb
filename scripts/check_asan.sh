#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer in a
# separate build directory and runs the full test suite under it. The
# matcher's trail/pointer machinery is the main customer.
#
# Usage: scripts/check_asan.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=address,undefined
jobs="$(nproc)"
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo "asan/ubsan: all tests passed"
