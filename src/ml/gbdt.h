// Gradient-boosted decision trees with logistic loss — the reproduction's
// "LightGBM": histogram splits, leaf-wise tree growth, shrinkage, row and
// feature subsampling, and early stopping on a validation fold.
#pragma once

#include "ml/decision_tree.h"
#include "ml/flat_ensemble.h"
#include "ml/model.h"

namespace memfp::ml {

struct GbdtParams {
  int max_rounds = 300;
  double learning_rate = 0.08;
  GradientTreeParams tree;
  double subsample = 0.8;         ///< row fraction per round
  int early_stopping_rounds = 30; ///< on validation logloss; 0 disables
  double validation_fraction = 0.15;
};

class Gbdt final : public BinaryClassifier {
 public:
  explicit Gbdt(GbdtParams params = {});

  void fit(const Dataset& train, Rng& rng) override;
  double predict(std::span<const float> features) const override;
  /// Flat-engine batch scoring (FlatEnsemble with shrinkage baked into the
  /// leaf values), bit-identical to the serial per-row loop at any thread
  /// count; compiled lazily, invalidated by fit()/from_json().
  std::vector<double> predict_batch(const Matrix& x) const override;
  std::string name() const override { return "LightGBM"; }
  Json to_json() const override;
  static Gbdt from_json(const Json& json);

  int rounds_used() const { return static_cast<int>(trees_.size()); }
  const std::vector<Tree>& trees() const { return trees_; }

 private:
  double raw_score(std::span<const float> features) const;

  GbdtParams params_;
  double base_score_ = 0.0;  ///< log-odds prior
  std::vector<Tree> trees_;
  LazyFlatEnsemble flat_;  ///< compiled inference form of trees_
};

}  // namespace memfp::ml
