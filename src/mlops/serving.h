// Multi-tenant online serving engine (ROADMAP item 3): the production form
// of the paper's Online Prediction stage, scaled from "one DIMM at a time on
// one thread" to sharded, batched, admission-controlled fleet serving.
//
//  - Shard map: DIMM streams are partitioned into contiguous near-equal id
//    ranges (the same begin = s*n/shards rule the fleet driver uses), one
//    persistent OnlineExtractorState per DIMM, shards served in parallel on
//    the deterministic ThreadPool.
//  - Batched inference: DIMMs due at the same cadence tick accumulate their
//    feature rows into batch_rows-row blocks scored through
//    BinaryClassifier::predict_batch (the flat/SIMD ensemble), amortizing
//    one block descent across many tenants. The tick sweep is cache-blocked
//    into cohorts of streams (tick-major within a cohort, cohort-major
//    overall) so extraction states stay cache-resident between ticks.
//  - Bounded queues: each shard routes due telemetry through a fixed-
//    capacity event queue; a full queue forces a drain ("stall") and is
//    counted as backpressure rather than growing memory.
//  - Admission control: a per-DIMM token bucket charges each ingested event;
//    a DIMM that runs dry is degraded to a coarser scoring cadence
//    (degraded_stride) until the bucket refills past half capacity, and
//    shard-level overload ticks shed degraded DIMMs entirely. Every shed
//    decision is counted (stats + Monitoring). Admission is OFF by default.
//
// Determinism contract: with admission control off, the scores, alarm set
// and monitoring counters produced by run_over / run_over_store are byte-
// identical to the serial single-row loop (run_reference) at every shard and
// thread count. The engine achieves this by buffering per-DIMM outcomes
// during the parallel phase and replaying them into AlarmSystem/Monitoring
// in global DIMM order afterwards; per-row scores are bit-equal by the
// predict_batch override contract (ml/model.h). Golden-hash tests pin this
// (tests/test_serving.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ml/model.h"
#include "mlops/alarm.h"
#include "mlops/feature_store.h"
#include "mlops/monitoring.h"
#include "sim/trace.h"
#include "sim/trace_store.h"

namespace memfp::mlops {

/// CE-storm admission control. Off by default: serving is then byte-
/// identical to the serial reference. When enabled, ingestion is never
/// blocked (extraction state must stay correct) — only scoring cadence
/// degrades, which bounds tick latency under storms.
struct AdmissionConfig {
  bool enabled = false;
  /// Token bucket refill per cadence tick; each ingested event costs one.
  double tokens_per_tick = 32.0;
  /// Burst allowance. A DIMM whose bucket runs dry degrades; it recovers
  /// once the bucket refills past half capacity.
  double bucket_capacity = 256.0;
  /// A degraded DIMM is scored only every degraded_stride-th tick.
  int degraded_stride = 4;
  /// Per-tick ingest count (within one serving cohort of a shard) above
  /// which the shard is overloaded: degraded DIMMs are shed entirely on
  /// overload ticks (normal DIMMs still score).
  std::uint64_t shard_overload_events = 1u << 20;
};

struct ServingConfig {
  /// Number of serving shards for run_over (run_over_store shards by file).
  std::size_t shards = 8;
  /// ThreadPool cap for the parallel shard sweep (0 = pool default).
  int num_threads = 0;
  /// Cross-DIMM inference block size.
  std::size_t batch_rows = 64;
  /// Bounded per-shard event queue capacity (backpressure unit).
  std::size_t queue_capacity = 4096;
  AdmissionConfig admission;
  /// Optional monotonic clock probe (nanoseconds) used to measure per-shard
  /// tick latencies. Benches inject this; production code inside src/ never
  /// reads wall clocks directly (the `wall-clock` lint rule).
  std::function<std::uint64_t()> now_ns;
};

struct ServingStats {
  std::uint64_t dimms = 0;            ///< streams opened (DIMMs with CEs)
  std::uint64_t ticks = 0;            ///< cadence ticks swept (per shard)
  std::uint64_t ingested_ces = 0;
  std::uint64_t ingested_events = 0;  ///< non-CE memory events
  std::uint64_t scored = 0;           ///< predictions recorded to monitoring
  std::uint64_t batches = 0;          ///< predict_batch invocations
  std::uint64_t alarms = 0;           ///< alarm raises during this run
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t queue_stalls = 0;     ///< forced drains of a full queue
  std::uint64_t shed_scores = 0;      ///< scoring ticks skipped by admission
  std::uint64_t degraded_dimms = 0;   ///< DIMMs that ever entered degraded mode
  std::uint64_t overload_ticks = 0;   ///< shard-ticks above the overload bar
  std::uint64_t score_hash = sim::kFnvOffset;  ///< (dimm, t, score) fold
  std::uint64_t alarm_hash = sim::kFnvOffset;  ///< alarm-vector fold
  /// Per-tick serving latencies (one sample per cohort per tick),
  /// concatenated in shard order. Filled only when ServingConfig::now_ns
  /// is set.
  std::vector<std::uint64_t> tick_latencies_ns;
};

/// Shard index serving DIMM stream `index` of `total` under the contiguous
/// near-equal range map (stable: pure function of index/total/shards).
std::size_t serving_shard_of(std::size_t index, std::size_t total,
                             std::size_t shards);

class ServingEngine {
 public:
  /// The engine serves `model` at `threshold` against streams opened from
  /// `store`, raising into `alarms` and reporting to `monitoring` (all
  /// borrowed; must outlive the engine).
  ServingEngine(const ml::BinaryClassifier& model, double threshold,
                const FeatureStore& store, AlarmSystem& alarms,
                Monitoring& monitoring, ServingConfig config = {});

  double threshold() const { return threshold_; }
  const ServingConfig& config() const { return config_; }

  /// Sharded, batched streaming sweep over an in-memory fleet at the given
  /// cadence over [start, end]; DIMMs stop being scored once they alarm or
  /// fail, exactly like the serial loop.
  ServingStats run_over(const sim::FleetTrace& fleet, SimTime start,
                        SimTime end, SimDuration cadence);

  /// Same sweep fed from trace-store shard files (sim::TraceReader), one
  /// serving shard per file: composes with the PR 6 fleet driver store so a
  /// million-DIMM fleet serves in shard-bounded RSS.
  ServingStats run_over_store(const std::vector<std::string>& shard_files,
                              SimTime start, SimTime end, SimDuration cadence);

  /// Serial single-row oracle: the pre-batching service loop (DIMM-major,
  /// one predict per tick). Kept as the byte-identity baseline for tests
  /// and benches.
  ServingStats run_reference(const sim::FleetTrace& fleet, SimTime start,
                             SimTime end, SimDuration cadence);

  /// Scores one extracted feature row and applies record_outcome to it
  /// (the one-shot path, OnlinePredictionService::score_dimm). Returns
  /// nullopt when `features` is empty (no observation window) — distinct
  /// from a genuine 0.0 score.
  std::optional<double> score_row(dram::DimmId dimm, SimTime t,
                                  const std::vector<float>& features);

 private:
  struct Outcome {
    SimTime time = 0;
    double score = 0.0;
    bool alarmed = false;
    // Cumulative per-stream ingest counts at this outcome's tick: the
    // rollback point for speculative scoring (see serve_shard).
    std::uint64_t ingested_ces = 0;
    std::uint64_t ingested_events = 0;
  };

  struct ShardOutput {
    std::vector<dram::DimmId> dimm_ids;          // shard order
    std::vector<std::vector<Outcome>> outcomes;  // parallel to dimm_ids
    std::uint64_t ticks = 0;
    std::uint64_t ingested_ces = 0;
    std::uint64_t ingested_events = 0;
    std::uint64_t batches = 0;
    std::uint64_t peak_queue_depth = 0;
    std::uint64_t queue_stalls = 0;
    std::uint64_t shed_scores = 0;
    std::uint64_t degraded_dimms = 0;
    std::uint64_t overload_ticks = 0;
    std::vector<std::uint64_t> tick_latencies_ns;
  };

  bool crossing(double score) const { return score >= threshold_; }

  /// The one outcome rule of score_row, replay and run_reference: records
  /// the prediction and, on a threshold crossing, raises the alarm and
  /// records it. Returns whether it alarmed.
  bool record_outcome(dram::DimmId dimm, SimTime t, double score);

  /// Tick-major batched sweep over one shard's DIMM traces. Pure with
  /// respect to shared state: reads alarms_ (pre-existing alarms), writes
  /// only the returned output.
  ShardOutput serve_shard(const sim::DimmTrace* dimms, std::size_t count,
                          SimTime start, SimTime end,
                          SimDuration cadence) const;

  /// Replays buffered shard outcomes into AlarmSystem/Monitoring in shard
  /// order (= global DIMM order), reproducing the serial side-effect
  /// sequence, and folds the score hash.
  void replay(const ShardOutput& output, ServingStats& stats);

  /// Merges shard-local counters and finishes stats (alarm hash, admission
  /// counters into monitoring when admission is on).
  void finish(std::vector<ShardOutput>& outputs, ServingStats& stats);

  const ml::BinaryClassifier* model_;
  double threshold_;
  const FeatureStore* store_;
  AlarmSystem* alarms_;
  Monitoring* monitoring_;
  ServingConfig config_;
};

}  // namespace memfp::mlops
