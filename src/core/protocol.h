// The evaluation protocol (paper Section VI): the per-DIMM train/validation/
// test split, per-DIMM downsampling, class rebalancing, and the named
// ground-truth rule that F1 threshold tuning and DIMM-level alarm scoring
// (core/evaluation.h) are fed with. Experiment (model level, Table II) and
// CampaignEngine (policy level) are its two callers; they differ only in the
// GroundTruth they pass and in how they seed their RNG streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/evaluation.h"
#include "features/sample.h"
#include "ml/dataset.h"
#include "sim/trace.h"

namespace memfp::core {

/// Split and downsampling parameters (fixed per experiment or campaign, not
/// a sweep axis).
struct SamplingParams {
  double test_fraction = 0.30;
  double validation_fraction = 0.25;  ///< of train DIMMs, for threshold
  std::size_t max_negatives_per_dimm = 6;
  std::size_t max_positives_per_dimm = 12;
  double positive_weight_share = 0.25;
  std::uint64_t seed = 13;
};

/// Which DIMMs are evaluated, and what a positive DIMM is.
enum class GroundTruth {
  /// Model level (Experiment, the Table II numbers): only DIMMs with logged
  /// CE history are evaluated; no-CE DIMMs (sudden UEs) carry no predictive
  /// telemetry and are dropped. Positive = UE preceded by a CE.
  kPredictableUe,
  /// Policy level (CampaignEngine): every observed DIMM is evaluated; no-CE
  /// DIMMs are forced into test and never alarm. Positive = any UE, so
  /// sudden UEs are charged to the result as misses.
  kAnyUe,
};

/// What the protocol reads of one DIMM.
struct DimmFacts {
  dram::DimmId id = 0;
  bool has_ce = false;       ///< logged CE history (eligible for the split)
  bool has_ue = false;
  bool predictable = false;  ///< UE with prior CE
  SimTime ue_time = 0;       ///< valid when has_ue

  static DimmFacts of(const sim::DimmTrace& dimm);
};

/// Ground truth of one DIMM under `truth`; the alarm is left unset.
AlarmOutcome ground_truth(const DimmFacts& dimm, GroundTruth truth);

enum class Role : std::uint8_t { kExcluded, kTrain, kVal, kTest };

/// Assigns every DIMM its role: the test split over the CE DIMMs, then the
/// validation split over the remaining ones, both stratified by predictable
/// UE. DIMMs without CE history are kExcluded under kPredictableUe and kTest
/// under kAnyUe. Draws the two splits from `rng`, in that order.
std::vector<Role> assign_roles(std::span<const DimmFacts> dimms,
                               const SamplingParams& sampling,
                               GroundTruth truth, Rng& rng);

/// Builds the training set: add_dimm() downsamples one training DIMM's
/// trainable samples (at most max_negatives_per_dimm random negatives, the
/// latest max_positives_per_dimm positives) and pools them; call it in DIMM
/// order, since it draws from the caller's `rng`. finish() builds the
/// dataset and rebalances the classes.
class TrainingSetBuilder {
 public:
  TrainingSetBuilder(features::FeatureSchema schema,
                     const SamplingParams& sampling, Rng& rng);

  void add_dimm(std::vector<features::Sample> samples);
  ml::Dataset finish() const;

 private:
  features::SampleSet pooled_;
  SamplingParams sampling_;
  Rng& rng_;
};

}  // namespace memfp::core
