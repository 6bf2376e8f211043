#!/usr/bin/env bash
# Builds memfp_e2e from this checkout and runs the end-to-end benchmark.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# Without --workload it runs all four workloads in turn. For each workload it
# first runs the untimed correctness checks (--verify at scale 0.1), then the
# timed run (or, with --trace 1, the traced run) in a process of its own. It
# prints every metric as "workload name value unit" and, last, one JSON line:
#   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
# With one workload that line is the harness's own; with several, metric
# names are prefixed "workload." and the counts are summed. Full reports land
# in .bench_build/e2e/results/ for compare.py. The exit status is non-zero
# when any check fails.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
BUILD="$ROOT/.bench_build/e2e"
WORK="$BUILD/work"
RESULTS="$BUILD/results"

WORKLOADS="fleet-batch serve-store serve-storm table2"
SEED=1234
SECONDS_PER_RUN=20
TRACE=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOADS="$2"; shift 2 ;;
    --seed) SEED="$2"; shift 2 ;;
    --seconds) SECONDS_PER_RUN="$2"; shift 2 ;;
    --trace) TRACE="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
case "$TRACE" in
  0|1) ;;
  *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac

if [ ! -f "$ROOT/src/CMakeLists.txt" ]; then
  echo "run.sh: no memfp sources under $ROOT/src; run from a full checkout" >&2
  exit 1
fi

CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
JOBS=$(( CPUS < 4 ? CPUS : 4 ))
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  GENERATOR=()
  if command -v ninja >/dev/null 2>&1; then GENERATOR=(-G Ninja); fi
  cmake -S "$ROOT/bench/e2e" -B "$BUILD" ${GENERATOR[@]+"${GENERATOR[@]}"} \
    -DCMAKE_BUILD_TYPE=Release >&2
fi

# Never time an instrumented or unoptimised build: the numbers would say
# nothing about the code.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
SANITIZE="$(sed -n 's/^MEMFP_SANITIZE:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
if [ -n "$SANITIZE" ]; then
  echo "run.sh: refusing to benchmark a sanitizer build" \
       "(MEMFP_SANITIZE=$SANITIZE) in $BUILD" >&2
  exit 1
fi
case "$BUILD_TYPE" in
  Release|RelWithDebInfo) ;;
  *) echo "run.sh: refusing to benchmark build type '$BUILD_TYPE' in $BUILD;" \
          "use Release or RelWithDebInfo" >&2
     exit 1 ;;
esac
cmake --build "$BUILD" -j "$JOBS" --target memfp_e2e >&2
BIN="$BUILD/memfp_e2e"

MEMFP_E2E_COMMIT=unknown
if [ -e "$ROOT/.git" ]; then
  MEMFP_E2E_COMMIT="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null ||
                      echo unknown)"
fi
export MEMFP_E2E_COMMIT
if [ "$CPUS" -lt 4 ]; then
  echo "run.sh: note: only $CPUS online CPU(s), so the workloads run $JOBS" \
       "thread(s) and these figures are not comparable with a 4-CPU host's;" \
       "4-thread figures taken on this host would measure work sharing," \
       "not parallel speedup" >&2
fi

status=0
lines=()
for workload in $WORKLOADS; do
  mkdir -p "$RESULTS/$workload"
  stamp="$RESULTS/$workload/seed$SEED-$(date +%Y%m%dT%H%M%S)-$$"
  verify=()
  if ! "$BIN" --workload "$workload" --seed "$SEED" --scale 0.1 --verify \
       --work-dir "$WORK" >&2; then
    echo "run.sh: FAIL: $workload verification failed for seed $SEED" >&2
    verify=(--verify-failed)
  fi
  mode=(--report "$stamp-timed.json")
  if [ "$TRACE" = 1 ]; then
    mode=(--trace --report "$stamp-trace.json" --spans "$stamp-spans.json")
  fi
  if ! "$BIN" --workload "$workload" --seed "$SEED" \
       --seconds "$SECONDS_PER_RUN" --work-dir "$WORK" \
       "${mode[@]}" ${verify[@]+"${verify[@]}"} > "$stamp.out"; then
    status=1
  fi
  sed '$d' "$stamp.out" | sed "s/^/$workload /"
  lines+=("$workload" "$(tail -n 1 "$stamp.out")")
done
rm -rf "$WORK"

# The result line: one workload's own, or all of them merged.
python3 - "${lines[@]}" <<'EOF' || status=1
import json, sys
args = sys.argv[1:]
runs = [(args[i], json.loads(args[i + 1])) for i in range(0, len(args), 2)]
if len(runs) == 1:
    print(json.dumps(runs[0][1]))
else:
    print(json.dumps({
        "correct": all(r["correct"] for _, r in runs),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": {f"{w}.{name}": m for w, r in runs
                    for name, m in r["metrics"].items()}}))
EOF
exit "$status"
