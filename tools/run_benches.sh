#!/usr/bin/env bash
# Runs the perf-tracked micro-benches and emits the trajectory files at the
# repo root:
#   BENCH_train.json    BM_TreeTrain / BM_GbdtTrain row-count scaling vs the
#                       pre-binned-training baseline — rerun after changes
#                       to src/ml/{binning,decision_tree}*.
#   BENCH_extract.json  BM_Extract / BM_FeaturesAt (incremental sliding-
#                       window extraction + streaming serving) and
#                       BM_Gemm / BM_GemmBt (dense kernel unrolling) vs the
#                       pre-incremental baseline, and BM_StreamStorm (one
#                       CE-storm DIMM through the serving fold) vs the
#                       pre-split-ring window; medians of 5 repetitions
#                       with their range — rerun after changes to
#                       src/features/ or src/ml/tensor.cc; and
#                       BM_ShardDecode (one 4096-DIMM shard decoded on one
#                       thread) vs the heap-allocated error patterns —
#                       rerun after changes to src/sim/trace_store.* or
#                       src/dram/error_pattern.*.
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
#                       after changes to src/sim/trace_store.* or
#                       src/core/fleet_driver.*. Written by bench_fleet
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
RAW_EXTRACT="$BUILD/bench_extract_raw.json"
"$BUILD/bench/bench_micro" \
  --benchmark_filter='^BM_(Extract|FeaturesAt|StreamStorm|ShardDecode|Gemm|GemmBt)$' \
  --benchmark_repetitions=5 \
  --benchmark_out="$RAW_EXTRACT" --benchmark_out_format=json >&2

python3 - "$RAW_EXTRACT" "$ROOT/BENCH_extract.json" <<'EOF'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

# Wall times (ms, median) before the change each bench tracks, measured
# with the same generators as the benches. At commit 65df1cd, before
# incremental extraction: BM_Extract = full-trace batch extraction
# (storm-heavy, hourly cadence, 5000 ticks); BM_FeaturesAt = 200 successive
# per-DIMM serving calls (the old path deep-copied the trace and rebuilt an
# extractor per call); BM_Gemm / BM_GemmBt = dense 256x64 @ 64x64 products
# before the unrolled kernels. At commit 5c7df8d, before the split window
# rings: BM_StreamStorm = one CE-storm DIMM folded with ingest_ce_at and
# scored every 6-hour tick (median of 5 repetitions, 4-CPU Xeon host). At
# commit c60c82b, before inline error patterns: BM_ShardDecode = every
# record of one 4096-DIMM Purley shard decoded and dropped on one thread
# (same host; the median of six runs alternated with the change's, each the
# median of 5 repetitions, 191-212 ms).
BASELINE = {
    "BM_Extract": ("65df1cd", 800.0),
    "BM_FeaturesAt": ("65df1cd", 391.0),
    "BM_Gemm": ("65df1cd", 0.617),
    "BM_GemmBt": ("65df1cd", 0.437),
    "BM_StreamStorm": ("5c7df8d", 11.4),
    "BM_ShardDecode": ("c60c82b", 200.0),
}

UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

# Median over the repetitions, with the range of the repetitions as spread.
current = {}
spread = {}
for entry in raw.get("benchmarks", []):
    name = entry.get("run_name", entry["name"])
    if name not in BASELINE:
        continue
    ms = round(entry["real_time"] * UNIT_TO_MS[entry.get("time_unit", "ns")], 4)
    if entry.get("run_type", "iteration") == "iteration":
        lo, hi = spread.get(name, (ms, ms))
        spread[name] = (min(lo, ms), max(hi, ms))
    elif entry.get("aggregate_name") == "median":
        current[name] = ms

speedup = {
    bench: round(base / current[bench], 2)
    for bench, (_, base) in BASELINE.items()
    if current.get(bench)
}

out = {
    "generated_by": "tools/run_benches.sh",
    "threads": 1,
    "repetitions": 5,
    "context": raw.get("context", {}),
    "baseline_commit": {bench: commit for bench, (commit, _) in BASELINE.items()},
    "baseline_ms": {bench: ms for bench, (_, ms) in BASELINE.items()},
    "current_ms": current,
    "spread_ms": {bench: list(lo_hi) for bench, lo_hi in spread.items()},
    "speedup": speedup,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(json.dumps(speedup, indent=2, sort_keys=True))
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
