// Sharded, bounded-memory fleet driver (ROADMAP item 1): simulates N DIMMs
// in K shards, spilling each shard to the compact binary trace store and
// streaming it back for feature extraction and flat-ensemble scoring, so the
// resident working set is one shard — never the fleet.
//
// Per shard the driver runs the full per-DIMM pipeline:
//
//   plan (FleetPlanner id range) → simulate (parallel) → encode + spill
//   (ShardWriter, id order) → stream back (TraceReader) → extract
//   (incremental sliding-window engine, parallel) → score (FlatEnsemble
//   batch via BinaryClassifier::predict_batch)
//
// The in-order serial steps (frame writes, the feature-hash fold and row
// assembly) run on the calling thread alongside the parallel encode and
// extract (ThreadPool::parallel_for_ordered), and the simulated traces are
// freed alongside the shard's read-back (a two-index parallel_for).
//
// Determinism contract: traces, features, and scores are byte-identical to
// the in-memory simulate_fleet + FeatureExtractor path for ANY shard count
// and ANY thread count. The hinge is FleetPlanner's serial-fork cursor —
// a shard's per-DIMM RNG streams depend only on (seed, id range) — plus the
// deterministic ThreadPool (index-slotted outputs) and predict_batch's
// bit-identical-to-serial override contract. The contract is enforced as
// folded FNV-1a hashes over the observed DIMMs in id order (trace payload
// bytes, sample rows, score bits); reference_fleet_result() computes the
// same hashes from the resident path for equality checks at small scale.
//
// Lives in core (not sim) because it stitches sim + features + ml into one
// driver; the layering rule (tools/lint) forbids sim from reaching up.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dram/geometry.h"
#include "features/extractor.h"
#include "ml/model.h"
#include "sim/dimm_sim.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "sim/trace_store.h"

namespace memfp::core {

struct FleetDriverConfig {
  /// Shard count K. Planned DIMMs are split into K near-equal contiguous id
  /// ranges; results are invariant in K.
  std::size_t shards = 16;
  /// Directory for the spilled shard files (created if missing).
  std::string store_dir;
  /// Keep the sealed shard files after the run (for DataLake::ingest_shards);
  /// false deletes each shard once scored, bounding disk to one shard too.
  bool keep_store = false;
  /// Thread cap for the run (0 = pool default). Any value produces
  /// byte-identical results.
  int num_threads = 0;
  /// Feature windows for the extraction stage.
  features::PredictionWindows windows;
};

struct FleetDriverResult {
  std::size_t planned_dimms = 0;
  std::size_t observed_dimms = 0;
  /// Raw telemetry volume across observed DIMMs (CE + mem events + UEs).
  std::uint64_t ce_records = 0;
  std::uint64_t mem_events = 0;
  std::uint64_t ue_records = 0;
  std::uint64_t suppressed_ces = 0;
  /// Total encoded shard bytes (header + records + index + footer).
  std::uint64_t encoded_bytes = 0;
  /// Feature samples extracted (and scored, when a model is given).
  std::size_t samples = 0;

  /// Folded FNV-1a determinism hashes, in observed-DIMM id order.
  std::uint64_t trace_hash = sim::kFnvOffset;
  std::uint64_t feature_hash = sim::kFnvOffset;
  std::uint64_t score_hash = sim::kFnvOffset;
  /// Sum of model scores in sample order (a human-readable tripwire next to
  /// the exact score_hash).
  double score_sum = 0.0;

  /// Sealed shard files (only when keep_store).
  std::vector<std::string> shard_files;

  std::uint64_t events() const {
    return ce_records + mem_events + ue_records;
  }
};

/// One simulated shard, as written to its shard file.
struct SimulatedShard {
  /// The observed DIMMs (sim::enters_observed_dataset), in id order.
  std::vector<sim::DimmTrace> observed;
  sim::ShardStats stats;
  /// The caller's running trace hash with every observed DIMM folded in.
  std::uint64_t trace_hash = sim::kFnvOffset;
};

/// Simulates a planned shard (one pool task per DIMM) and writes its
/// observed DIMMs to a shard file at `path` in id order, folding each
/// DIMM's content hash into `trace_hash`. The one planner-to-shard step
/// behind run_fleet_driver and the campaign's simulate stage.
SimulatedShard simulate_shard(std::span<const sim::PlannedDimm> jobs,
                              const sim::ScenarioParams& params,
                              const sim::DimmSimulator& simulator,
                              const dram::Geometry& geometry,
                              const std::string& path,
                              std::uint64_t trace_hash);

/// Runs the sharded pipeline. `model` may be null to stop after extraction
/// (simulate + encode + extract only; samples are counted and hashed, but no
/// feature matrix is assembled). Deterministic in params.seed for any
/// config.shards / config.num_threads.
FleetDriverResult run_fleet_driver(const sim::ScenarioParams& params,
                                   const FleetDriverConfig& config,
                                   const ml::BinaryClassifier* model,
                                   const sim::DimmSimParams& sim_params = {});

/// The same counters and hashes computed from the resident path
/// (simulate_fleet + in-memory extraction/scoring, no spill). Small-scale
/// equality oracle for the determinism contract.
FleetDriverResult reference_fleet_result(
    const sim::ScenarioParams& params,
    const features::PredictionWindows& windows,
    const ml::BinaryClassifier* model,
    const sim::DimmSimParams& sim_params = {});

/// Folds one extracted sample (dimm, time, label, feature bits) into `h`.
std::uint64_t fold_sample_hash(std::uint64_t h,
                               const features::Sample& sample);

}  // namespace memfp::core
