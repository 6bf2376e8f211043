#!/usr/bin/env bash
# Runs the perf-tracked micro-benches and emits the trajectory files at the
# repo root:
#   BENCH_train.json    BM_TreeTrain / BM_GbdtTrain row-count scaling vs the
#                       pre-binned-training baseline — rerun after changes
#                       to src/ml/{binning,decision_tree}*.
#   BENCH_extract.json  BM_Extract / BM_FeaturesAt (incremental sliding-
#                       window extraction + streaming serving), BM_Gemm /
#                       BM_GemmBt (dense kernels), BM_StreamStorm (one
#                       CE-storm DIMM through the serving fold),
#                       BM_ShardDecode (every record of one 4096-DIMM shard
#                       decoded on one thread) and BM_ShardRead (the same
#                       shard read and verified at 1 and 4 threads). The
#                       baseline is re-measured in the same run: this
#                       tree's bench source built against HEAD and run
#                       alternately with the current build for 6 rounds,
#                       each round the best of 5 repetitions, every
#                       single-thread row pinned to CPU 0 (taskset;
#                       required) and BM_ShardRead/threads:4 unpinned in
#                       its own invocation; medians with their range and
#                       the rounds the current build won — rerun after
#                       changes to src/features/,
#                       src/ml/tensor.cc, src/sim/trace_{store,reader}.*
#                       or src/dram/error_pattern.*.
#   BENCH_predict.json  BM_ForestPredict / BM_GbdtPredict row-count scaling
#                       of the flat batched inference engine. The baseline
#                       here is not frozen: the *Walker variants re-measure
#                       the pointer-walking per-row loop in the same run, so
#                       the speedup column compares the two layouts on
#                       identical hardware/load — rerun after changes to
#                       src/ml/flat_ensemble.* or the tree structures.
#   BENCH_simd.json     the tracked train/predict/gemm benches re-run with
#                       MEMFP_SIMD forced to every dispatch lane this host
#                       supports, plus the detected CPU features: records
#                       what each vector lane is worth over the scalar
#                       reference on this hardware — rerun after changes to
#                       src/common/simd*.
#   BENCH_fleet.json    sharded fleet driver scale sweep (10^4 -> 10^6
#                       DIMMs, 56-day horizon): DIMMs/sec, events/sec,
#                       encoded bytes/event and peak RSS per point — rerun
#                       after changes to src/sim/trace_{store,reader}.*
#                       or src/core/fleet_driver.*. Written by bench_fleet
#                       itself; expect ~15 minutes for the full sweep.
#   BENCH_serving.json  online serving engine: events/sec and p50/p99 tick
#                       latency for the frozen serial-baseline workload
#                       (vs the pre-engine loop at d688675), a 10^5-DIMM
#                       in-memory + store-backed sweep, and the CE-storm
#                       admission on/off comparison — rerun after changes
#                       to src/mlops/serving.* or src/features/window_*.
#                       Written by bench_serving itself.
#   BENCH_campaign.json campaign engine: a 48-point fault × ECC × predictor
#                       × policy sweep run through the content-addressed
#                       stage cache vs the naive per-config pipeline at the
#                       same thread count — records per-stage execution
#                       counts, the wall-clock speedup and the matched
#                       campaign hash (the two paths are byte-identical) —
#                       rerun after changes to src/core/campaign.* or
#                       src/core/stage_cache.*. Written by bench_campaign
#                       itself.
# Each file records the baseline, the current numbers, and the speedup.
#
# Usage: tools/run_benches.sh [SECTION...]
#   SECTION is one of train extract predict simd fleet serving campaign and
#   names the file it re-records (simd needs predict alongside); with none,
#   every file is re-recorded.
# The sanitizer refusal below covers every emitted file, BENCH_fleet.json
# included: instrumented builds never record numbers.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S "$ROOT"
fi

# Never record numbers from an instrumented build: sanitizers are 2-20x
# slowdowns, so the "speedup" column would be garbage that silently poisons
# the perf trajectory in BENCH_train.json.
SANITIZE="$(grep -E '^MEMFP_SANITIZE:' "$BUILD/CMakeCache.txt" | cut -d= -f2-)"
if [ -n "$SANITIZE" ]; then
  echo "refusing to record benchmarks: $BUILD is a sanitizer build" \
       "(MEMFP_SANITIZE=$SANITIZE); use a plain build dir" >&2
  exit 1
fi

SECTIONS="${*:-train extract predict simd fleet serving campaign}"
want() { [[ " $SECTIONS " == *" $1 "* ]]; }
for section in $SECTIONS; do
  case "$section" in
    train|extract|predict|simd|fleet|serving|campaign) ;;
    *) echo "run_benches.sh: unknown section $section" >&2; exit 2 ;;
  esac
done
if want simd && ! want predict; then
  echo "run_benches.sh: simd reads the predict section's run; add predict" >&2
  exit 2
fi

cmake --build "$BUILD" -j --target bench_micro

if want train; then
RAW="$BUILD/bench_train_raw.json"
"$BUILD/bench/bench_micro" \
  --benchmark_filter='^BM_(GbdtTrain|TreeTrain)/' \
  --benchmark_out="$RAW" --benchmark_out_format=json >&2

python3 - "$RAW" "$ROOT/BENCH_train.json" <<'EOF'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

# Pre-refactor single-thread wall times (ms, best of 3) measured at commit
# 2ff4ea7 with the same generators/params as the benches: 30 features,
# GBDT 30 rounds / single default classification tree.
BASELINE_MS = {
    "BM_GbdtTrain": {"2000": 31.28, "10000": 139.64, "50000": 994.61},
    "BM_TreeTrain": {"2000": 1.01, "10000": 7.87, "50000": 49.08},
}

current = {}
for entry in raw.get("benchmarks", []):
    name = entry["name"]  # e.g. BM_GbdtTrain/rows:50000
    if entry.get("run_type", "iteration") != "iteration":
        continue
    bench, _, arg = name.partition("/rows:")
    if bench not in BASELINE_MS or not arg:
        continue
    current.setdefault(bench, {})[arg] = round(entry["real_time"], 2)

speedup = {}
for bench, rows in BASELINE_MS.items():
    for arg, base in rows.items():
        now = current.get(bench, {}).get(arg)
        if now:
            speedup.setdefault(bench, {})[arg] = round(base / now, 2)

out = {
    "generated_by": "tools/run_benches.sh",
    "threads": 1,
    "context": raw.get("context", {}),
    "baseline_commit": "2ff4ea7",
    "baseline_ms": BASELINE_MS,
    "current_ms": current,
    "speedup": speedup,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(json.dumps(speedup, indent=2, sort_keys=True))
EOF
fi

if want extract; then
# The baseline is re-measured in the same run: this tree's bench_micro.cc
# built against HEAD's sources (the committed tree, so a change recorded
# before its commit compares against its parent), run in alternating order
# with the current build for ROUNDS rounds. Both sides see the same host
# load; the speedup column is the ratio of their medians. The script stops
# if this tree's bench source does not build against HEAD.
#
# The single-thread rows run pinned to one CPU (taskset -c 0) on both sides:
# unpinned, the scheduler's CPU migrations on a shared host moved unchanged
# code by up to 20% between recordings. BM_ShardRead/threads:4 needs more
# than one CPU, so it runs unpinned in its own invocation. Other tenants'
# load only ever slows a run, so a round keeps the best of REPS repetitions.
if ! command -v taskset > /dev/null; then
  echo "run_benches.sh: the extract section pins its single-thread rows" \
       "with taskset, which is not installed; nothing recorded" >&2
  exit 1
fi
ROUNDS=6
REPS=5
BASE_COMMIT="$(git -C "$ROOT" rev-parse --short HEAD)"
BASE_SRC="$BUILD/bench_base/src"
BASE_BUILD="$BUILD/bench_base/build"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
if [ "$(cat "$BASE_SRC/.rev" 2>/dev/null)" != "$BASE_COMMIT" ]; then
  rm -rf "$BASE_SRC"
  mkdir -p "$BASE_SRC"
  git -C "$ROOT" archive "$BASE_COMMIT" | tar -x -C "$BASE_SRC"
  echo "$BASE_COMMIT" > "$BASE_SRC/.rev"
fi
cmake -S "$BASE_SRC" -B "$BASE_BUILD" -DCMAKE_BUILD_TYPE="$BUILD_TYPE" >&2
cp "$ROOT/bench/bench_micro.cc" "$BASE_SRC/bench/bench_micro.cc"
cmake --build "$BASE_BUILD" -j --target bench_micro >&2

PINNED_FILTER='^BM_(Extract|FeaturesAt|StreamStorm|ShardDecode|Gemm|GemmBt)$|^BM_ShardRead/threads:1/'
UNPINNED_FILTER='^BM_ShardRead/threads:4/'
RAW_EXTRACT=()
for round in $(seq 1 "$ROUNDS"); do
  # Odd rounds run the baseline first, even rounds the current build.
  sides="base current"
  if [ $((round % 2)) -eq 0 ]; then sides="current base"; fi
  for side in $sides; do
    bin="$BUILD/bench/bench_micro"
    if [ "$side" = base ]; then bin="$BASE_BUILD/bench/bench_micro"; fi
    raw="$BUILD/bench_extract_${side}_${round}_pinned_raw.json"
    taskset -c 0 "$bin" --benchmark_filter="$PINNED_FILTER" \
      --benchmark_repetitions="$REPS" \
      --benchmark_out="$raw" --benchmark_out_format=json >&2
    RAW_EXTRACT+=("$side" "$raw")
    raw="$BUILD/bench_extract_${side}_${round}_unpinned_raw.json"
    "$bin" --benchmark_filter="$UNPINNED_FILTER" \
      --benchmark_repetitions="$REPS" \
      --benchmark_out="$raw" --benchmark_out_format=json >&2
    RAW_EXTRACT+=("$side" "$raw")
  done
done

python3 - "$ROOT/BENCH_extract.json" "$BASE_COMMIT" "$ROUNDS" "$REPS" \
  "${RAW_EXTRACT[@]}" <<'EOF'
import json
import statistics
import sys

out_path, base_commit, rounds, reps = sys.argv[1:5]
runs = sys.argv[5:]  # side, raw file, side, raw file, ...

UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

# times[side][bench] = one wall time (ms) per round, in round order: the
# best of the round's repetitions.
times = {"base": {}, "current": {}}
context = {}
for side, raw_path in zip(runs[0::2], runs[1::2]):
    with open(raw_path) as f:
        raw = json.load(f)
    if side == "current" and not context:
        context = raw.get("context", {})
    best = {}
    for entry in raw.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue
        ms = entry["real_time"] * UNIT_TO_MS[entry.get("time_unit", "ns")]
        best[entry["name"]] = min(ms, best.get(entry["name"], ms))
    for bench, ms in best.items():
        times[side].setdefault(bench, []).append(ms)


def medians(side):
    return {bench: round(statistics.median(ms), 4)
            for bench, ms in sorted(times[side].items())}


def ranges(side):
    return {bench: [round(min(ms), 4), round(max(ms), 4)]
            for bench, ms in sorted(times[side].items())}


baseline = medians("base")
current = medians("current")
speedup = {}
rounds_won = {}
for bench, now in current.items():
    base_ms = times["base"].get(bench)
    if not base_ms or now <= 0:
        continue
    speedup[bench] = round(baseline[bench] / now, 2)
    won = sum(c < b for c, b in zip(times["current"][bench], base_ms))
    rounds_won[bench] = f"{won}/{len(base_ms)}"

out = {
    "generated_by": "tools/run_benches.sh",
    "threads": 1,
    "threads_note": "BM_ShardRead/threads:N runs on N threads",
    "pinning": "taskset -c 0 on both sides for every row but "
               "BM_ShardRead/threads:4, which runs unpinned",
    "rounds": int(rounds),
    "repetitions_per_round": int(reps),
    "round_statistic": "best of the round's repetitions",
    "context": context,
    "baseline_commit": base_commit,
    "baseline_ms": baseline,
    "baseline_spread_ms": ranges("base"),
    "current_ms": current,
    "spread_ms": ranges("current"),
    "speedup": speedup,
    "rounds_won": rounds_won,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(json.dumps({"speedup": speedup, "rounds_won": rounds_won}, indent=2,
                 sort_keys=True))
EOF
fi

if want predict; then
RAW_PREDICT="$BUILD/bench_predict_raw.json"
"$BUILD/bench/bench_micro" \
  --benchmark_filter='^BM_(ForestPredict|GbdtPredict)(Walker)?/' \
  --benchmark_out="$RAW_PREDICT" --benchmark_out_format=json >&2

python3 - "$RAW_PREDICT" "$ROOT/BENCH_predict.json" <<'EOF'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

# Baseline = the *Walker benches from this same run: per row, walk every
# pointer-linked tree (the pre-flat-ensemble inference path, semantics frozen
# at commit 3f39d4a). Current = Model::predict_batch through the compiled
# FlatEnsemble. Both run single-threaded on identical inputs, so the speedup
# column isolates the flat-layout + 64-row-block batching win.
BENCHES = ("BM_ForestPredict", "BM_GbdtPredict")

baseline = {}
current = {}
for entry in raw.get("benchmarks", []):
    name = entry["name"]  # e.g. BM_GbdtPredictWalker/rows:50000
    if entry.get("run_type", "iteration") != "iteration":
        continue
    bench, _, arg = name.partition("/rows:")
    if not arg:
        continue
    ms = round(entry["real_time"], 2)
    if bench.endswith("Walker"):
        baseline.setdefault(bench[: -len("Walker")], {})[arg] = ms
    elif bench in BENCHES:
        current.setdefault(bench, {})[arg] = ms

speedup = {}
for bench, rows in baseline.items():
    for arg, base in rows.items():
        now = current.get(bench, {}).get(arg)
        if now:
            speedup.setdefault(bench, {})[arg] = round(base / now, 2)

out = {
    "generated_by": "tools/run_benches.sh",
    "threads": 1,
    "context": raw.get("context", {}),
    "baseline_commit": "3f39d4a",
    "baseline_ms": baseline,
    "current_ms": current,
    "speedup": speedup,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(json.dumps(speedup, indent=2, sort_keys=True))
EOF
fi

if want simd; then
# Per-dispatch-lane timings. The context block knows which lanes this host
# can run (bench_micro stamps simd_supported into every raw file — reuse
# the predict run's); each supported lane re-runs the tracked kernels with
# MEMFP_SIMD forced, so the file shows the vector lanes' worth over the
# scalar reference on identical hardware/load.
SUPPORTED="$(python3 -c \
  "import json,sys; print(json.load(open(sys.argv[1]))['context']['simd_supported'])" \
  "$RAW_PREDICT")"
SIMD_RAWS=()
for level in $SUPPORTED; do
  raw="$BUILD/bench_simd_${level}_raw.json"
  MEMFP_SIMD="$level" "$BUILD/bench/bench_micro" \
    --benchmark_filter='^BM_(TreeTrain|ForestPredict|GbdtPredict)/rows:50000$|^BM_(Gemm|GemmBt)$' \
    --benchmark_out="$raw" --benchmark_out_format=json >&2
  SIMD_RAWS+=("$raw")
done

python3 - "$ROOT/BENCH_simd.json" "${SIMD_RAWS[@]}" <<'EOF'
import json
import sys

out_path, raw_paths = sys.argv[1], sys.argv[2:]

UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

levels_ms = {}
context = {}
for raw_path in raw_paths:
    with open(raw_path) as f:
        raw = json.load(f)
    ctx = raw.get("context", {})
    level = ctx.get("simd_level", "unknown")
    if not context:
        context = ctx
    timings = {}
    for entry in raw.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue
        scale = UNIT_TO_MS[entry.get("time_unit", "ns")]
        timings[entry["name"]] = round(entry["real_time"] * scale, 4)
    levels_ms[level] = timings

scalar = levels_ms.get("scalar", {})
speedup = {
    level: {
        name: round(scalar[name] / ms, 2)
        for name, ms in timings.items()
        if scalar.get(name)
    }
    for level, timings in levels_ms.items()
    if level != "scalar"
}

out = {
    "generated_by": "tools/run_benches.sh",
    "threads": 1,
    "context": context,
    "cpu_features": context.get("cpu_features", ""),
    "simd_supported": context.get("simd_supported", ""),
    "levels_ms": levels_ms,
    "speedup_vs_scalar": speedup,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(json.dumps(speedup, indent=2, sort_keys=True))
EOF
fi

if want fleet; then
cmake --build "$BUILD" -j --target bench_fleet
"$BUILD/bench/bench_fleet" "$ROOT/BENCH_fleet.json" >&2
python3 -c "import json,sys; print(json.dumps(json.load(open(sys.argv[1]))['points'], indent=2))" "$ROOT/BENCH_fleet.json"
fi

if want serving; then
cmake --build "$BUILD" -j --target bench_serving
"$BUILD/bench/bench_serving" "$ROOT/BENCH_serving.json" >&2
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); print(json.dumps({'points': d['points'], 'storm': d['storm']}, indent=2))" "$ROOT/BENCH_serving.json"
fi

if want campaign; then
cmake --build "$BUILD" -j --target bench_campaign
"$BUILD/bench/bench_campaign" "$ROOT/BENCH_campaign.json" >&2
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); print(json.dumps({'naive': d['naive'], 'shared': d['shared'], 'speedup': d['speedup']}, indent=2))" "$ROOT/BENCH_campaign.json"
fi
