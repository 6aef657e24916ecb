#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer in a separate build directory and
# runs the suites where threads still share state. The library has no
# intra-query parallelism: the only concurrency is N reader threads over
# immutable DatabaseSnapshots plus one writer. What still races is
#   * snapshots against the writer (concurrency, database, incremental
#     and union-query suites: readers pin snapshots, some cold, race the
#     call_once nf build and answer premise queries while the writer
#     mutates and republishes);
#   * the sharded dictionary (concurrency suite: concurrent interning,
#     lock-free Name() readers, fresh-blank allocation);
#   * the shared Skolem cache (concurrency and batch suites: readers
#     mint head blanks through one evaluator while the writer answers);
#   * the serving driver (serving suite: N checked readers pinning
#     snapshots against one writer applying generator mutation batches).
#
# check_asan.sh needs no such list — it runs the full ctest suite, so
# serving_test is covered there automatically.
#
# Usage: scripts/check_tsan.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=thread
cmake --build "$build_dir" -j "$(nproc)" --target concurrency_test \
  batch_test serving_test database_test incremental_test union_query_test
ctest --test-dir "$build_dir" --output-on-failure \
  -R '^(concurrency|batch|serving|database|incremental|union_query)_test$'

echo "tsan: concurrency suites passed"
