#!/usr/bin/env bash
# Builds and runs the core/nf benchmark (E4, the sequential
# multi-component series and the sp2b nf probe), writes the results to
# BENCH_core.json at the repo root, and prints the nf probe
# (BM_CoreSp2bBlankCorpus) against its 30 ms target.
#
# Usage: scripts/bench_core.sh [build-dir] [extra benchmark args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Benchmarks must never run instrumented: pin SWDB_SANITIZE=OFF so a
# stale sanitized cache in the build dir cannot leak into the numbers.
cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=OFF >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_core

"$build_dir/bench/bench_core" \
  --benchmark_format=json \
  --benchmark_min_time=0.1 \
  "$@" > "$repo_root/BENCH_core.json"

python3 "$repo_root/scripts/bench_context.py" "$repo_root/BENCH_core.json"
echo "wrote $repo_root/BENCH_core.json"

python3 - "$repo_root/BENCH_core.json" <<'PY'
import json
import sys

TARGET_MS = 30.0
TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
with open(sys.argv[1]) as f:
    runs = json.load(f)["benchmarks"]
probe = [b for b in runs if b["name"] == "BM_CoreSp2bBlankCorpus"]
if not probe:
    print("nf probe: BM_CoreSp2bBlankCorpus not run (filtered out)")
else:
    b = probe[0]
    ms = b["real_time"] * TO_MS[b["time_unit"]]
    verdict = "within" if ms <= TARGET_MS else "OVER"
    print(f"nf probe: Core of a 10k sp2b closure (10% blank authors) "
          f"{ms:.1f} ms, {verdict} the {TARGET_MS:.0f} ms target "
          f"(folds={b['folds']:.0f}, iterations={b['iterations']:.0f}, "
          f"steps_used={b['steps_used']:.0f})")
PY
