// Feature Store stage (paper Fig 6): a catalog of feature definitions and a
// streaming serving path for online prediction, with a verifiable
// training/serving consistency guarantee against the batch rows training
// is built from (both paths run the same extractor).
#pragma once

#include "common/json.h"
#include "features/extractor.h"
#include "sim/trace.h"

namespace memfp::mlops {

class FeatureStore {
 public:
  explicit FeatureStore(features::PredictionWindows windows = {});

  /// Registered feature catalog: name, group, type, version.
  Json catalog() const;
  const features::FeatureSchema& schema() const {
    return extractor_.schema();
  }

  /// Streaming serving: point-in-time-correct features for online scoring.
  /// One-shot — replays the trace prefix per call.
  std::vector<float> serve(const sim::DimmTrace& trace, SimTime t) const;

  /// Opens a persistent streaming extraction state for one DIMM: feed
  /// telemetry as it arrives, query features at non-decreasing times with no
  /// trace copies and no extractor reconstruction. Byte-identical to serve()
  /// and to the extractor's batch rows (the consistency guarantee).
  features::OnlineExtractorState open_stream(const sim::DimmTrace& trace) const;

  /// Training/serving consistency check: the batch row at time t must equal
  /// the served vector bit-for-bit. Returns false on any divergence.
  bool check_consistency(const sim::DimmTrace& trace, SimTime t,
                         SimTime horizon) const;

  const features::PredictionWindows& windows() const {
    return extractor_.windows();
  }

 private:
  features::FeatureExtractor extractor_;
  int catalog_version_ = 1;
};

}  // namespace memfp::mlops
