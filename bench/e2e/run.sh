#!/usr/bin/env bash
# End-to-end benchmark of `gpustatic serve` (see README.md).
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace 0|1]
#   bash bench/e2e/run.sh --smoke     # every workload, ~3 s each, traced
#
# Builds the gpustatic CLI and the benchmark program e2e_bench from this
# checkout into build-bench/ (a no-op once built), then runs it. Without
# --workload all four workloads run. Output and the results file
# (build-bench/e2e-run/BENCH_e2e.json) stay inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no gpustatic source tree at $root" >&2
  exit 2
fi

args=("$@")
if [[ "${1:-}" == "--smoke" ]]; then
  args=(--seconds 3 --trace 1 "${@:2}")
fi

mkdir -p "$build"
log="$build/build.log"
export CCACHE_DISABLE=1
if ! {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} \
      -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$(nproc)" --target gpustatic_cli e2e_bench
} >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

rev=unknown
if [[ -e "$root/.git" ]] && command -v git >/dev/null; then
  rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

exec "$build/e2e_bench" \
  --gpustatic "$build/gpustatic/tools/gpustatic" \
  --out "$build/e2e-run" \
  --expected "$here/expected_seed1.txt" \
  --git-rev "$rev" \
  ${args[@]+"${args[@]}"}
