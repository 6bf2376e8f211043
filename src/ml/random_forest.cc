#include "ml/random_forest.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace memfp::ml {

RandomForest::RandomForest(RandomForestParams params) : params_(params) {}

void RandomForest::fit(const Dataset& train, Rng& rng) {
  MEMFP_CHECK_GT(train.size(), std::size_t{0})
      << "cannot fit a random forest on an empty dataset";
  MEMFP_CHECK_EQ(train.y.size(), train.size());
  MEMFP_CHECK_EQ(train.weight.size(), train.size());
  trees_.clear();
  flat_.invalidate();
  // Columnar codes + weight bundles are shared read-only by every tree task;
  // each fit owns its private row arena and histogram pool.
  const BinnedDataset binned = BinnedDataset::build(train);
  const auto sample_size = static_cast<std::size_t>(
      static_cast<double>(train.size()) * params_.bootstrap_fraction);
  // One task per tree. Tree t draws its bootstrap and split randomness from
  // rng.fork(t), a pure function of (rng state, t): every thread count —
  // including the serial fallback — grows the identical forest.
  trees_.resize(static_cast<std::size_t>(std::max(0, params_.trees)));
  ThreadPool::global().parallel_for(
      trees_.size(),
      [&](std::size_t t) {
        Rng tree_rng = rng.fork(static_cast<std::uint64_t>(t));
        std::vector<std::size_t> rows(sample_size);
        for (std::size_t& r : rows) r = tree_rng.uniform_u64(train.size());
        trees_[t] =
            fit_classification_tree(binned, rows, params_.tree, tree_rng);
      },
      /*grain=*/1);
}

double RandomForest::predict(std::span<const float> features) const {
  if (trees_.empty()) return 0.0;
  // Flat single-row traversal: the same comparisons, leaf values and
  // tree-order summation as walking every Tree, so the score is bit-
  // identical to the pointer walker (tests/test_flat_ensemble.cc).
  const double total = flat_.get(trees_, 1.0)->predict_row(features, 0.0);
  return total / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::predict_batch(const Matrix& x) const {
  std::vector<double> scores(x.rows(), 0.0);
  if (trees_.empty() || x.rows() == 0) return scores;
  flat_.get(trees_, 1.0)->predict(x, 0.0, scores);
  const auto count = static_cast<double>(trees_.size());
  for (double& score : scores) score /= count;
  return scores;
}

Json RandomForest::to_json() const {
  Json trees = Json::array();
  for (const Tree& tree : trees_) trees.push_back(tree.to_json());
  Json out = Json::object();
  out.set("type", "random_forest");
  out.set("trees", std::move(trees));
  return out;
}

RandomForest RandomForest::from_json(const Json& json) {
  RandomForest model;
  for (const Json& tree : json.at("trees").as_array()) {
    model.trees_.push_back(Tree::from_json(tree));
  }
  model.flat_.invalidate();  // recompile lazily against the loaded trees
  return model;
}

}  // namespace memfp::ml
