#include "core/protocol.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace memfp::core {

DimmFacts DimmFacts::of(const sim::DimmTrace& dimm) {
  DimmFacts facts;
  facts.id = dimm.id;
  facts.has_ce = !dimm.ces.empty();
  facts.has_ue = dimm.has_ue();
  facts.predictable = dimm.predictable_ue();
  facts.ue_time = dimm.ue ? dimm.ue->time : 0;
  return facts;
}

AlarmOutcome ground_truth(const DimmFacts& dimm, GroundTruth truth) {
  AlarmOutcome outcome;
  outcome.positive =
      truth == GroundTruth::kAnyUe ? dimm.has_ue : dimm.predictable;
  outcome.ue_time = dimm.ue_time;
  return outcome;
}

std::vector<Role> assign_roles(std::span<const DimmFacts> dimms,
                               const SamplingParams& sampling,
                               GroundTruth truth, Rng& rng) {
  // DIMMs without CE history never enter the split; every CE DIMM starts
  // out kTrain.
  std::vector<Role> roles(dimms.size());
  for (std::size_t i = 0; i < dimms.size(); ++i) {
    roles[i] = dimms[i].has_ce ? Role::kTrain
               : truth == GroundTruth::kAnyUe ? Role::kTest
                                              : Role::kExcluded;
  }
  // Stratified split of the kTrain DIMMs: the drawn side moves to `to`.
  const auto split = [&](double fraction, Role to) {
    std::vector<dram::DimmId> positive_ids, negative_ids;
    for (std::size_t i = 0; i < dimms.size(); ++i) {
      if (roles[i] != Role::kTrain) continue;
      (dimms[i].predictable ? positive_ids : negative_ids)
          .push_back(dimms[i].id);
    }
    std::vector<dram::DimmId> drawn =
        ml::split_dimms(positive_ids, negative_ids, fraction, rng).test;
    std::sort(drawn.begin(), drawn.end());
    for (std::size_t i = 0; i < dimms.size(); ++i) {
      if (roles[i] == Role::kTrain &&
          std::binary_search(drawn.begin(), drawn.end(), dimms[i].id)) {
        roles[i] = to;
      }
    }
  };
  split(sampling.test_fraction, Role::kTest);
  split(sampling.validation_fraction, Role::kVal);
  return roles;
}

TrainingSetBuilder::TrainingSetBuilder(features::FeatureSchema schema,
                                       const SamplingParams& sampling,
                                       Rng& rng)
    : sampling_(sampling), rng_(rng) {
  pooled_.schema = std::move(schema);
}

void TrainingSetBuilder::add_dimm(std::vector<features::Sample> samples) {
  std::vector<features::Sample> positives, negatives;
  for (features::Sample& sample : samples) {
    if (sample.label == 1) positives.push_back(std::move(sample));
    else if (sample.label == 0) negatives.push_back(std::move(sample));
  }
  // Negatives: a uniform random subset, one shuffle drawn only when over
  // the cap. Positives: the latest ones (samples arrive in time order; no
  // draw) — closest to the failure, strongest signal, and they bound the
  // lead time the model actually learns.
  if (negatives.size() > sampling_.max_negatives_per_dimm) {
    rng_.shuffle(negatives);
    negatives.resize(sampling_.max_negatives_per_dimm);
  }
  if (positives.size() > sampling_.max_positives_per_dimm) {
    positives.erase(positives.begin(),
                    positives.end() - static_cast<std::ptrdiff_t>(
                                          sampling_.max_positives_per_dimm));
  }
  for (features::Sample& sample : negatives) {
    pooled_.samples.push_back(std::move(sample));
  }
  for (features::Sample& sample : positives) {
    pooled_.samples.push_back(std::move(sample));
  }
}

ml::Dataset TrainingSetBuilder::finish() const {
  ml::Dataset dataset = ml::make_dataset(pooled_);
  ml::rebalance_weights(dataset, sampling_.positive_weight_share);
  return dataset;
}

}  // namespace memfp::core
