#!/usr/bin/env bash
# One-command sanitizer pass over the unit-test suite.  Two modes:
#
#   bench/run_sanitize.sh [build-dir]        ASan+UBSan (default)
#   bench/run_sanitize.sh [build-dir] tsan   ThreadSanitizer
#
# Both configure a dedicated build tree (every test carries the `sanitize`
# ctest label there, see CMakeLists.txt), build it, and run
# `ctest -L sanitize`.  Sibling of run_benches.sh's perf smoke flow — the
# suites together are the CI story: one command for perf, one for
# memory/UB, one for data races.
#
# The TSan mode disables OpenMP: libgomp is not TSan-instrumented and would
# flood the report with false positives, while the rank-parallel machinery
# under test (sim::RankTeam workers, sim::Comm posted-epoch halo pipeline)
# is pure std::thread/std::atomic and is exactly what TSan validates.
#
#   build-dir  where to configure the sanitizer tree (default:
#              ./build-sanitize or ./build-tsan; created if missing)
set -euo pipefail

build="${1:-}"
mode="${2:-asan}"
root="$(cd "$(dirname "$0")/.." && pwd)"

case "$mode" in
  asan) sanitize_flags=(-DIGR_SANITIZE=ON); default_build=build-sanitize ;;
  tsan) sanitize_flags=(-DIGR_TSAN=ON -DIGR_ENABLE_OPENMP=OFF)
        default_build=build-tsan ;;
  *) echo "run_sanitize.sh: mode must be 'asan' or 'tsan' (got '$mode')" >&2
     exit 2 ;;
esac
build="${build:-$default_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac

# The reproducibility flags normally live only in the Release flag set; the
# bitwise tests need them in this RelWithDebInfo tree too (on FMA-default
# toolchains, contraction differences between the fused step's flux/RK
# stage and compute_rhs, and against the golden fingerprints,
# would otherwise trip them spuriously).  IGR_REPRO_FLAGS appends them with
# the per-compiler SLP-flag spelling (clang spells it differently).
cmake -B "$build" -S "$root" \
      "${sanitize_flags[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIGR_REPRO_FLAGS=ON
cmake --build "$build" -j
ctest --test-dir "$build" -L sanitize --output-on-failure
