// Public facade: a per-platform memory failure predictor.
//
// This is the API a downstream operator consumes: train it on a fleet's
// telemetry, then score any DIMM at any point in time (the online service in
// memfp::mlops drives exactly this object). Internally it owns the feature
// extractor, the chosen model, and a threshold tuned on a validation fold
// with the paper's DIMM-level alarm semantics.
#pragma once

#include <memory>
#include <optional>

#include "common/json.h"
#include "core/pipeline.h"

namespace memfp::core {

class MemoryFailurePredictor {
 public:
  struct Options {
    Algorithm algorithm = Algorithm::kLightGbm;
    features::PredictionWindows windows;
    SimDuration eval_cadence = days(2);
    /// Split/downsampling. test_fraction is ignored: every DIMM trains or
    /// validates the threshold.
    SamplingParams sampling{.validation_fraction = 0.2, .seed = 17};
  };

  explicit MemoryFailurePredictor(dram::Platform platform);
  MemoryFailurePredictor(dram::Platform platform, Options options);

  /// Trains the model on the fleet and tunes the alarm threshold.
  void train(const sim::FleetTrace& fleet);

  /// P(UE within the prediction window) for a DIMM at time t. Returns 0
  /// when the DIMM has no CE in the observation window (nothing to act on).
  double score(const sim::DimmTrace& dimm, SimTime t) const;

  /// Alarm decision at time t.
  bool predict(const sim::DimmTrace& dimm, SimTime t) const;

  bool trained() const { return model_ != nullptr; }
  double threshold() const { return threshold_; }
  dram::Platform platform() const { return platform_; }
  const ml::BinaryClassifier& model() const { return *model_; }

  /// Registry export: model weights + threshold + platform.
  Json to_json() const;

 private:
  dram::Platform platform_;
  Options options_;
  features::FeatureExtractor extractor_;
  std::unique_ptr<ml::BinaryClassifier> model_;
  double threshold_ = 0.5;
};

}  // namespace memfp::core
