// End-to-end prediction pipeline (paper Section VI): fleet telemetry ->
// samples -> per-DIMM split -> model training -> threshold tuning on a
// validation fold -> DIMM-level alarm evaluation on held-out DIMMs. The
// split, downsampling and ground truth come from core/protocol.h; the
// Experiment applies its model-level rule, GroundTruth::kPredictableUe.
//
// The pipeline never materializes the full fleet sample set: training rows
// are downsampled per DIMM as they are extracted. Each evaluation fold is one
// EvalPartition (core/evaluation.h), scored by one predict_batch call, the
// same scoring path the campaign engine uses.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/protocol.h"
#include "features/extractor.h"
#include "ml/model.h"
#include "sim/trace.h"

namespace memfp::core {

enum class Algorithm { kRiskyCePattern, kRandomForest, kLightGbm, kFtTransformer };

const char* algorithm_name(Algorithm algorithm);

/// Fresh model instance for an algorithm (kRiskyCePattern is trace-based and
/// handled by the pipeline itself; requesting it here throws).
std::unique_ptr<ml::BinaryClassifier> make_model(Algorithm algorithm);

/// Experiment configuration: the shared split/downsampling parameters plus
/// the model-level knobs.
struct PipelineConfig : SamplingParams {
  features::PredictionWindows windows;      ///< training cadence = 1 day
  SimDuration eval_cadence = days(2);       ///< scoring cadence on val/test
  /// Optional feature-column restriction (ablations); empty = all features.
  /// Every column must index the feature schema (checked at construction).
  std::vector<std::size_t> active_features;
  /// Parallelism cap for this experiment's simulation/training/scoring hot
  /// paths: 0 = the pool default (MEMFP_THREADS env var, else
  /// hardware_concurrency()); 1 = the serial fallback. Results are
  /// byte-identical for every value (see DESIGN.md "Threading model").
  int num_threads = 0;
};

/// A fleet prepared for experiments: roles assigned, training set built.
class Experiment {
 public:
  Experiment(const sim::FleetTrace& fleet, PipelineConfig config);

  /// Trains and evaluates one ML algorithm.
  struct Result {
    std::string algorithm;
    ml::Confusion confusion;
    double threshold = 0.0;
    double precision = 0.0;
    double recall = 0.0;
    double f1 = 0.0;
    double virr = 0.0;
    bool applicable = true;  ///< false renders as "X" (paper Table II)
  };
  Result run(Algorithm algorithm);

  /// Like run(), but also hands back the fitted model (nullptr for the
  /// trace-based rule baseline).
  std::pair<Result, std::unique_ptr<ml::BinaryClassifier>> run_with_model(
      Algorithm algorithm);

  const sim::FleetTrace& fleet() const { return *fleet_; }
  const PipelineConfig& config() const { return config_; }
  const ml::Dataset& train_set() const { return train_set_; }
  std::size_t train_dimm_count() const { return train_dimms_.size(); }
  std::size_t test_dimm_count() const { return test_dimms_.size(); }
  const std::vector<const sim::DimmTrace*>& test_dimms() const {
    return test_dimms_;
  }

  /// Every eval-cadence sample of `dimms` (projected onto the active
  /// features) as one partition: stream i is dimms[i]'s, with dimm[i] = i.
  /// DIMMs are extracted in parallel and appended in order, so the
  /// partition is identical at any thread count.
  EvalPartition eval_partition(
      const std::vector<const sim::DimmTrace*>& dimms) const;

 private:
  Result run_risky_baseline();

  /// Ablation: restricts every sample's features to the active columns, in
  /// place; a no-op when no column restriction is active.
  void project(std::vector<features::Sample>& samples) const;

  const sim::FleetTrace* fleet_;
  PipelineConfig config_;
  features::FeatureExtractor train_extractor_;
  features::FeatureExtractor eval_extractor_;
  std::vector<const sim::DimmTrace*> train_dimms_;
  std::vector<const sim::DimmTrace*> val_dimms_;
  std::vector<const sim::DimmTrace*> test_dimms_;
  ml::Dataset train_set_;
};

}  // namespace memfp::core
