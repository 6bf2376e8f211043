// Random forest classifier: bagged weighted-gini CARTs with per-split
// feature subsampling, probability output by tree averaging.
#pragma once

#include "ml/decision_tree.h"
#include "ml/flat_ensemble.h"
#include "ml/model.h"

namespace memfp::ml {

struct RandomForestParams {
  int trees = 150;
  ClassificationTreeParams tree;
  double bootstrap_fraction = 1.0;  ///< bootstrap sample size vs dataset
};

class RandomForest final : public BinaryClassifier {
 public:
  explicit RandomForest(RandomForestParams params = {});

  void fit(const Dataset& train, Rng& rng) override;
  double predict(std::span<const float> features) const override;
  /// Flat-engine batch scoring (FlatEnsemble), bit-identical to the serial
  /// per-row loop at any thread count; the compiled form is built lazily on
  /// first prediction and invalidated by fit()/from_json().
  std::vector<double> predict_batch(const Matrix& x) const override;
  std::string name() const override { return "Random forest"; }
  Json to_json() const override;
  static RandomForest from_json(const Json& json);

  const std::vector<Tree>& trees() const { return trees_; }

 private:
  RandomForestParams params_;
  std::vector<Tree> trees_;
  LazyFlatEnsemble flat_;  ///< compiled inference form of trees_
};

}  // namespace memfp::ml
