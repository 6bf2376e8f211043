#include "core/pipeline.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "baseline/risky_ce_pattern.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/platform_profile.h"
#include "ml/ft_transformer.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"

namespace memfp::core {

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRiskyCePattern:
      return "Risky CE Pattern";
    case Algorithm::kRandomForest:
      return "Random forest";
    case Algorithm::kLightGbm:
      return "LightGBM";
    case Algorithm::kFtTransformer:
      return "FT-Transformer";
  }
  return "?";
}

std::unique_ptr<ml::BinaryClassifier> make_model(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRandomForest:
      return std::make_unique<ml::RandomForest>();
    case Algorithm::kLightGbm:
      return std::make_unique<ml::Gbdt>();
    case Algorithm::kFtTransformer:
      return std::make_unique<ml::FtTransformer>();
    case Algorithm::kRiskyCePattern:
      break;
  }
  throw std::invalid_argument(
      "make_model: Risky CE Pattern is trace-based, not a feature model");
}

namespace {

/// The Experiment's ground-truth rule (the Table II numbers).
constexpr GroundTruth kModelLevel = GroundTruth::kPredictableUe;

/// Model-level ground truth of each DIMM; alarms are left unset.
std::vector<AlarmOutcome> outcomes_of(
    const std::vector<const sim::DimmTrace*>& dimms) {
  std::vector<AlarmOutcome> outcomes;
  outcomes.reserve(dimms.size());
  for (const sim::DimmTrace* dimm : dimms) {
    outcomes.push_back(ground_truth(DimmFacts::of(*dimm), kModelLevel));
  }
  return outcomes;
}

features::PredictionWindows with_cadence(features::PredictionWindows windows,
                                         SimDuration cadence) {
  windows.cadence = cadence;
  return windows;
}

}  // namespace

Experiment::Experiment(const sim::FleetTrace& fleet, PipelineConfig config)
    : fleet_(&fleet),
      config_(std::move(config)),
      train_extractor_(config_.windows),
      eval_extractor_(with_cadence(config_.windows, config_.eval_cadence)) {
  // project() indexes feature rows unchecked.
  for (const std::size_t col : config_.active_features) {
    MEMFP_CHECK_LT(col, train_extractor_.schema().size())
        << "active_features names a column outside the feature schema";
  }

  Rng rng(config_.seed);
  std::vector<DimmFacts> facts;
  facts.reserve(fleet.dimms.size());
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    facts.push_back(DimmFacts::of(dimm));
  }
  const std::vector<Role> roles =
      assign_roles(facts, config_, kModelLevel, rng);
  for (std::size_t i = 0; i < roles.size(); ++i) {
    if (roles[i] == Role::kTrain) train_dimms_.push_back(&fleet.dimms[i]);
    if (roles[i] == Role::kVal) val_dimms_.push_back(&fleet.dimms[i]);
    if (roles[i] == Role::kTest) test_dimms_.push_back(&fleet.dimms[i]);
  }

  // Build the training set: extract (and project) per DIMM in parallel
  // blocks, then downsample serially in DIMM order. Extraction draws no
  // RNG, so the parallel fan-out cannot disturb sample_rng's draw sequence
  // and the training set stays byte-identical at any thread count;
  // block-at-a-time keeps peak memory at one block of undownsampled DIMMs.
  Rng sample_rng = rng.fork();
  const features::FeatureSchema& schema = train_extractor_.schema();
  TrainingSetBuilder builder(
      config_.active_features.empty() ? schema
                                       : schema.subset(config_.active_features),
      config_, sample_rng);
  {
    ThreadPool::ScopedLimit limit(config_.num_threads);
    constexpr std::size_t kExtractBlock = 32;
    std::vector<std::vector<features::Sample>> block(kExtractBlock);
    for (std::size_t begin = 0; begin < train_dimms_.size();
         begin += kExtractBlock) {
      const std::size_t count =
          std::min(kExtractBlock, train_dimms_.size() - begin);
      ThreadPool::global().parallel_for(
          count,
          [&](std::size_t i) {
            block[i] =
                train_extractor_.extract(*train_dimms_[begin + i],
                                         fleet.horizon);
            project(block[i]);
          },
          /*grain=*/1);
      for (std::size_t i = 0; i < count; ++i) {
        builder.add_dimm(std::move(block[i]));
        block[i].clear();
      }
    }
  }
  train_set_ = builder.finish();

  MEMFP_INFO << "experiment " << dram::platform_name(fleet.platform) << ": "
             << train_dimms_.size() << " train / " << val_dimms_.size()
             << " val / " << test_dimms_.size() << " test DIMMs, "
             << train_set_.size() << " training rows ("
             << train_set_.positives() << " positive)";
}

void Experiment::project(std::vector<features::Sample>& samples) const {
  if (config_.active_features.empty()) return;
  std::vector<float> row;
  for (features::Sample& sample : samples) {
    row.clear();
    for (std::size_t col : config_.active_features) {
      row.push_back(sample.features[col]);
    }
    sample.features.assign(row.begin(), row.end());
  }
}

EvalPartition Experiment::eval_partition(
    const std::vector<const sim::DimmTrace*>& dimms) const {
  EvalPartition partition;
  std::vector<std::vector<features::Sample>> slots(dimms.size());
  ThreadPool::ScopedLimit limit(config_.num_threads);
  ThreadPool::global().parallel_for_ordered(
      dimms.size(),
      [&](std::size_t i) {
        slots[i] = eval_extractor_.extract(*dimms[i], fleet_->horizon);
        project(slots[i]);
      },
      [&](std::size_t i) {
        const std::vector<features::Sample> samples = std::move(slots[i]);
        partition.add(i, samples);
      });
  return partition;
}

Experiment::Result Experiment::run(Algorithm algorithm) {
  return run_with_model(algorithm).first;
}

std::pair<Experiment::Result, std::unique_ptr<ml::BinaryClassifier>>
Experiment::run_with_model(Algorithm algorithm) {
  if (algorithm == Algorithm::kRiskyCePattern) {
    return {run_risky_baseline(), nullptr};
  }

  Result result;
  result.algorithm = algorithm_name(algorithm);
  // Caps pool width for training and scoring alike; results do not depend
  // on the cap (determinism contract), only wall-clock does.
  ThreadPool::ScopedLimit limit(config_.num_threads);
  Rng rng(config_.seed ^ (static_cast<std::uint64_t>(algorithm) + 0x51ed));
  std::unique_ptr<ml::BinaryClassifier> model = make_model(algorithm);
  model->fit(train_set_, rng);

  // Threshold tuning on the validation DIMMs.
  result.threshold =
      tune_threshold(eval_partition(val_dimms_).score(*model),
                     outcomes_of(val_dimms_), config_.windows);

  // Held-out evaluation.
  std::vector<AlarmOutcome> outcomes = outcomes_of(test_dimms_);
  const std::vector<std::optional<SimTime>> alarms =
      eval_partition(test_dimms_).score(*model).first_alarms(
          {&result.threshold, 1});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].alarm = alarms[i];
  }
  result.confusion = dimm_confusion(outcomes, config_.windows);
  result.precision = result.confusion.precision();
  result.recall = result.confusion.recall();
  result.f1 = result.confusion.f1();
  result.virr = result.confusion.virr();
  return {std::move(result), std::move(model)};
}

Experiment::Result Experiment::run_risky_baseline() {
  Result result;
  result.algorithm = algorithm_name(Algorithm::kRiskyCePattern);
  if (!profile_for(fleet_->platform).risky_ce_baseline_applicable) {
    // The published rules target the Purley ECC generation only.
    result.applicable = false;
    return result;
  }
  baseline::RiskyCePattern baseline(config_.windows);
  std::vector<const sim::DimmTrace*> fit_dimms = train_dimms_;
  fit_dimms.insert(fit_dimms.end(), val_dimms_.begin(), val_dimms_.end());
  baseline.fit(fit_dimms);

  std::vector<AlarmOutcome> outcomes = outcomes_of(test_dimms_);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].alarm = baseline.first_alarm(*test_dimms_[i]);
  }
  result.confusion = dimm_confusion(outcomes, config_.windows);
  result.precision = result.confusion.precision();
  result.recall = result.confusion.recall();
  result.f1 = result.confusion.f1();
  result.virr = result.confusion.virr();
  result.threshold = 1.0;
  return result;
}

}  // namespace memfp::core
