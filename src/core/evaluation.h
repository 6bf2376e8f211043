// DIMM-level evaluation with alarm semantics (paper Section IV).
//
// A predictor watches each DIMM's telemetry stream and raises an alarm the
// first time its score crosses the threshold. The alarm is a true positive
// only if the DIMM's UE then arrives no sooner than the lead time dt_l and
// no later than dt_l + dt_p — early enough to act, close enough to matter.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/time.h"
#include "features/sample.h"
#include "features/windows.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/model.h"

namespace memfp::core {

/// The outcome material for one evaluated DIMM.
struct AlarmOutcome {
  bool positive = false;  ///< DIMM had a predictable UE
  SimTime ue_time = 0;    ///< valid when positive
  std::optional<SimTime> alarm;
};

/// Adds one DIMM's outcome to `c` under the window rules: a positive's
/// timely alarm is TP; a positive without one is FN, plus FP when it did
/// alarm (the migration was still spent); a negative is FP or TN.
void classify(const AlarmOutcome& outcome,
              const features::PredictionWindows& windows, ml::Confusion& c);

/// Classifies alarm outcomes into a confusion matrix under the window rules.
ml::Confusion dimm_confusion(const std::vector<AlarmOutcome>& outcomes,
                             const features::PredictionWindows& windows);

/// Per-DIMM score streams (times ascending) in flat SoA layout: stream s
/// owns [offsets[s], offsets[s+1]) of `times`/`scores`.
struct ScoreStreamSet {
  std::vector<std::size_t> offsets{0};
  std::vector<SimTime> times;
  std::vector<double> scores;

  std::size_t streams() const { return offsets.size() - 1; }

  /// First alarm of every (threshold, stream) pair in ONE pass per stream:
  /// thresholds are visited in descending order, so the set a score event
  /// latches is always a contiguous suffix and each event costs one binary
  /// search. Output is indexed out[t * streams() + s]. Tie rule: a score
  /// exactly at the threshold alarms (score >= threshold), identical to the
  /// serving-layer latch.
  std::vector<std::optional<SimTime>> first_alarms(
      std::span<const double> thresholds) const;
};

/// One evaluation fold (validation or test), the single DIMM-level scoring
/// path of Experiment and the campaign: stream i belongs to DIMM dimm[i]
/// (an index the caller chooses), `streams` carries offsets and times with
/// no scores, and `x` holds the feature rows in stream order.
struct EvalPartition {
  std::vector<std::size_t> dimm;
  ScoreStreamSet streams;
  ml::Matrix x;

  /// Appends one DIMM's eval-cadence samples as the next stream.
  void add(std::size_t dimm_index,
           const std::vector<features::Sample>& samples);

  /// The streams with scores filled by ONE predict_batch over every row;
  /// predict_batch is bit-identical at any thread count, so the scores are.
  ScoreStreamSet score(const ml::BinaryClassifier& model) const;
};

/// Picks the threshold maximizing DIMM-level F1 over validation streams.
/// Candidates are the distinct per-DIMM maximum scores.
double tune_threshold(const ScoreStreamSet& streams,
                      const std::vector<AlarmOutcome>& outcomes_template,
                      const features::PredictionWindows& windows);

}  // namespace memfp::core
