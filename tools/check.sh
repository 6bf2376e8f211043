#!/usr/bin/env bash
# Verification matrix: the correctness gate every PR runs before merging.
#
#   leg 1  lint      memfp-lint v2 static analysis over src/, tests/, bench/
#                    (token streams + cross-TU project graph: layering,
#                    parallel-capture, rng-discipline, unordered-iter).
#                    Builds ONLY the memfp_lint target, so the leg answers
#                    in seconds; `memfp_lint --rule=<name>` and `--graph`
#                    (include-DAG DOT dump) are available for local triage.
#   leg 2  werror    clean -Wall -Wextra -Werror build + full ctest
#   leg 3  asan      AddressSanitizer + UBSan build, full ctest
#   leg 4  tsan      ThreadSanitizer build, thread-pool + parallel
#                    determinism + sharded serving suites (the racy
#                    surface; the full suite under TSan is ~20x and adds
#                    no extra coverage)
#   leg 5  scalar    full ctest with MEMFP_SIMD=scalar forced: the SIMD
#                    reference lane stays green on its own, and the
#                    dispatch-equality suites (Simd*, GoldenModels) re-run
#                    with every kernel pinned to the scalar table
#   leg 6  bench     bench_micro smoke run (tracked benches execute with
#                    minimal iterations, so bench binaries can't bit-rot)
#                    plus tiny-scale bench_fleet, bench_serving,
#                    bench_campaign and bench_table2_prediction passes
#                    (sharded driver spill→stream→score, the batched
#                    serving engine, the shared-vs-naive campaign sweep
#                    with its hash identity check, and the Table II loop
#                    with its Risky-CE baseline cell)
#   leg 7  tidy      clang-tidy over src/ (advisory; skipped when the
#                    binary is not installed)
#
# Sanitizer coverage of the new trace-store/fleet-driver surface: the asan
# leg runs the full ctest (codec round-trip + corruption death tests), and
# the tsan leg's Determinism filter matches the FleetDriverDeterminism
# suites (parallel simulate/extract across shards).
#
# Every leg builds out-of-source under build-check/ so the developer build/
# tree is never poisoned by sanitizer objects. Usage:
#
#   tools/check.sh          # full matrix
#   tools/check.sh lint     # one leg (lint|werror|asan|tsan|scalar|bench|tidy)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MATRIX_ROOT="${MATRIX_ROOT:-$ROOT/build-check}"
JOBS="${JOBS:-$(nproc)}"
LEG="${1:-all}"

log() { printf '\n==== check.sh: %s ====\n' "$*" >&2; }

configure_and_build() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$ROOT" "$@" > /dev/null
  cmake --build "$dir" -j "$JOBS"
}

run_lint() {
  log "leg: lint (memfp-lint v2 static analysis)"
  # Shares the plain configure with scalar/bench/tidy but builds only the
  # analyzer target: a standalone `tools/check.sh lint` stays a seconds-fast
  # pre-commit gate even on a cold tree.
  local dir="$MATRIX_ROOT/plain"
  cmake -B "$dir" -S "$ROOT" > /dev/null
  cmake --build "$dir" -j "$JOBS" --target memfp_lint
  "$dir/tools/lint/memfp_lint" "$ROOT"
}

run_werror() {
  log "leg: werror (-Wall -Wextra -Werror, full ctest)"
  local dir="$MATRIX_ROOT/werror"
  configure_and_build "$dir" -DMEMFP_WERROR=ON
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_asan() {
  log "leg: asan (AddressSanitizer + UBSan, full ctest)"
  local dir="$MATRIX_ROOT/asan"
  configure_and_build "$dir" -DMEMFP_SANITIZE=address,undefined
  # halt_on_error: a UBSan report must fail the leg, not scroll past.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_tsan() {
  log "leg: tsan (ThreadSanitizer, thread-pool + parallel determinism)"
  local dir="$MATRIX_ROOT/tsan"
  configure_and_build "$dir" -DMEMFP_SANITIZE=thread
  # The concurrency surface: the pool itself plus every parallelised path
  # (fleet sim, forest/GBDT training, scoring, sharded serving) exercised
  # with >1 thread.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
      -R 'ThreadPool|Parallel|Determinism|Serving'
}

run_scalar() {
  log "leg: scalar (MEMFP_SIMD=scalar, full ctest)"
  local dir="$MATRIX_ROOT/plain"  # reuse the plain (non-sanitizer) configure
  cmake -B "$dir" -S "$ROOT" > /dev/null
  cmake --build "$dir" -j "$JOBS"
  # Same binaries, reference kernel table only: proves nothing silently
  # depends on a vector lane, and that scalar output still matches every
  # golden hash the vector lanes were verified against.
  MEMFP_SIMD=scalar \
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_bench() {
  log "leg: bench (bench_micro smoke run)"
  local dir="$MATRIX_ROOT/plain"  # reuse the plain (non-sanitizer) configure
  cmake -B "$dir" -S "$ROOT" > /dev/null
  cmake --build "$dir" -j "$JOBS" --target bench_micro
  # One fast pass over the perf-tracked benches: catches bench-only build
  # breaks and runtime crashes without recording numbers (run_benches.sh
  # owns the recorded trajectory).
  "$dir/bench/bench_micro" \
    --benchmark_filter='^BM_(Extract|FeaturesAt|Gemm|GemmBt)$|^BM_(GbdtTrain|TreeTrain)/rows:2000|^BM_(ForestPredict|GbdtPredict)(Walker)?/rows:2000' \
    --benchmark_min_time=0.01 > /dev/null
  # Fleet smoke: a few hundred DIMMs through simulate → spill → stream →
  # extract → score, so the sharded driver can't bit-rot between perf runs.
  cmake --build "$dir" -j "$JOBS" --target bench_fleet
  MEMFP_BENCH_SCALE=0.02 "$dir/bench/bench_fleet" > /dev/null
  # Serving smoke: the sharded/batched engine end to end (in-memory +
  # store-backed sweeps and both storm admission runs) at toy scale.
  cmake --build "$dir" -j "$JOBS" --target bench_serving
  MEMFP_BENCH_SCALE=0.02 "$dir/bench/bench_serving" > /dev/null
  # Campaign smoke: the full 48-point sweep at toy scale, shared through one
  # engine and naive with one fresh engine per point — the bench aborts if
  # the two campaign hashes diverge, so this doubles as a byte-identity
  # check on the stage cache.
  cmake --build "$dir" -j "$JOBS" --target bench_campaign
  MEMFP_BENCH_SCALE=0.05 "$dir/bench/bench_campaign" > /dev/null
  # Table II smoke: every platform x algorithm cell at toy scale, including
  # the Risky-CE baseline's fit and alarm replay on Purley.
  cmake --build "$dir" -j "$JOBS" --target bench_table2_prediction
  MEMFP_BENCH_SCALE=0.02 "$dir/bench/bench_table2_prediction" > /dev/null
}

run_tidy() {
  log "leg: tidy (clang-tidy, advisory)"
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "clang-tidy not installed; skipping advisory leg" >&2
    return 0
  fi
  local dir="$MATRIX_ROOT/plain"  # reuse the plain configure
  cmake -B "$dir" -S "$ROOT" > /dev/null
  find "$ROOT/src" -name '*.cc' -print0 |
    xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$dir" --quiet
}

case "$LEG" in
  lint)   run_lint ;;
  werror) run_werror ;;
  asan)   run_asan ;;
  tsan)   run_tsan ;;
  scalar) run_scalar ;;
  bench)  run_bench ;;
  tidy)   run_tidy ;;
  all)
    run_lint
    run_werror
    run_asan
    run_tsan
    run_scalar
    run_bench
    run_tidy
    log "matrix green"
    ;;
  *)
    echo "usage: tools/check.sh [lint|werror|asan|tsan|scalar|bench|tidy]" >&2
    exit 2
    ;;
esac
