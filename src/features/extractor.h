// Feature extraction over a DIMM's telemetry trace.
//
// Extraction is built on the incremental sliding-window engine in
// window_state.h: one persistent OnlineExtractorState per DIMM folds each CE
// exactly once and evicts it exactly once, so a full-trace extraction costs
// O(events + samples) amortized instead of rescanning the observation window
// at every cadence tick. The batch path (extract) and the streaming serving
// path (open_stream / features_at) run the same engine, which keeps the
// train/serve consistency property byte-exact.
//
// Leakage discipline: a sample at time t sees only events with time <= t.
// The trace-level `suppressed_ce_count` is NOT a feature (it is filled in by
// the simulator without a timestamp); storm events, which are timestamped,
// carry that information instead.
#pragma once

#include "features/sample.h"
#include "features/schema.h"
#include "features/window_state.h"
#include "features/windows.h"
#include "sim/trace.h"

namespace memfp::features {

class FeatureExtractor {
 public:
  explicit FeatureExtractor(PredictionWindows windows = {});

  const FeatureSchema& schema() const { return schema_; }
  const PredictionWindows& windows() const { return windows_; }

  /// All samples of one DIMM over [cadence, min(horizon, UE time)].
  std::vector<Sample> extract(const sim::DimmTrace& trace,
                              SimTime horizon) const;

  /// Feature vector at one point in time (one-shot serving path). Returns an
  /// empty vector when the observation window holds no CE. Callers scoring
  /// many timestamps of the same DIMM should hold an open_stream() state
  /// instead — this entry point replays the trace prefix per call.
  std::vector<float> features_at(const sim::DimmTrace& trace, SimTime t) const;

  /// Opens a persistent streaming extraction state for one DIMM (the online
  /// serving path), byte-identical to extract(): query with features_at(t)
  /// for non-decreasing t. Callers that know each event's query time fold it
  /// directly with ingest_ce_at / ingest_event_at (the fast path extract()
  /// and ServingEngine use); observe_ce / observe_event instead queue
  /// telemetry that may run ahead of the next query.
  OnlineExtractorState open_stream(const dram::DimmConfig& config,
                                   const sim::WorkloadStats& workload) const;

 private:
  FeatureSchema schema_;
  PredictionWindows windows_;
};

}  // namespace memfp::features
