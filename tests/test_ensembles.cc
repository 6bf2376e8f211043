#include <gtest/gtest.h>

#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"

namespace memfp::ml {
namespace {

/// XOR-ish: y = 1 iff (x0 > 0.5) xor (x1 > 0.5). Not linearly separable;
/// a single stump cannot solve it.
Dataset xor_dataset(std::size_t n, Rng& rng, double noise = 0.0) {
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.uniform());
    const float x1 = static_cast<float>(rng.uniform());
    int y = (x0 > 0.5f) != (x1 > 0.5f) ? 1 : 0;
    if (noise > 0.0 && rng.bernoulli(noise)) y = 1 - y;
    d.x.push_row(std::vector<float>{x0, x1});
    d.y.push_back(y);
    d.weight.push_back(1.0f);
    d.dimm.push_back(static_cast<dram::DimmId>(i));
    d.time.push_back(0);
  }
  return d;
}

double accuracy(const BinaryClassifier& model, const Dataset& d) {
  int correct = 0;
  for (std::size_t r = 0; r < d.size(); ++r) {
    correct += (model.predict(d.x.row(r)) > 0.5) == (d.y[r] == 1);
  }
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

TEST(RandomForest, LearnsXor) {
  Rng rng(1);
  const Dataset train = xor_dataset(1500, rng);
  const Dataset test = xor_dataset(500, rng);
  RandomForest model;
  model.fit(train, rng);
  EXPECT_GT(accuracy(model, test), 0.9);
}

TEST(RandomForest, ProbabilitiesInUnitInterval) {
  Rng rng(2);
  const Dataset train = xor_dataset(400, rng, 0.2);
  RandomForest model;
  model.fit(train, rng);
  for (std::size_t r = 0; r < train.size(); ++r) {
    const double p = model.predict(train.x.row(r));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForest, JsonRoundTrip) {
  Rng rng(3);
  const Dataset train = xor_dataset(300, rng);
  RandomForestParams params;
  params.trees = 10;
  RandomForest model(params);
  model.fit(train, rng);
  const auto restored = model_from_json(Json::parse(model.to_json().dump()));
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_DOUBLE_EQ(model.predict(train.x.row(r)),
                     restored->predict(train.x.row(r)));
  }
}

TEST(RandomForest, FeatureSplitCountsFavorInformativeFeatures) {
  Rng rng(4);
  // Feature 0 is informative, feature 1 is noise.
  Dataset d;
  for (int i = 0; i < 1000; ++i) {
    const float x0 = static_cast<float>(rng.uniform());
    d.x.push_row(std::vector<float>{x0, static_cast<float>(rng.uniform())});
    d.y.push_back(x0 > 0.5f ? 1 : 0);
    d.weight.push_back(1.0f);
    d.dimm.push_back(0);
    d.time.push_back(0);
  }
  RandomForest model;
  model.fit(d, rng);
  // Split frequency per feature, over every internal node of every tree.
  std::size_t counts[2] = {0, 0};
  for (const Tree& tree : model.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      if (node.feature >= 0) ++counts[static_cast<std::size_t>(node.feature)];
    }
  }
  EXPECT_GT(counts[0], counts[1]);
}

TEST(Gbdt, LearnsXor) {
  Rng rng(5);
  const Dataset train = xor_dataset(1500, rng);
  const Dataset test = xor_dataset(500, rng);
  Gbdt model;
  model.fit(train, rng);
  EXPECT_GT(accuracy(model, test), 0.93);
}

TEST(Gbdt, BeatsForestOnNoisyXor) {
  // Not a strict theorem, but with matched budgets boosting usually edges
  // out bagging on this task — mirroring the paper's LightGBM > RF finding.
  Rng rng(6);
  const Dataset train = xor_dataset(2000, rng, 0.1);
  const Dataset test = xor_dataset(800, rng, 0.0);
  Gbdt gbdt;
  RandomForest forest;
  Rng rng_a(7), rng_b(7);
  gbdt.fit(train, rng_a);
  forest.fit(train, rng_b);
  EXPECT_GE(accuracy(gbdt, test) + 0.03, accuracy(forest, test));
}

TEST(Gbdt, EarlyStoppingBoundsRounds) {
  Rng rng(8);
  // Pure noise: validation loss cannot improve for long.
  const Dataset train = xor_dataset(600, rng, 0.5);
  GbdtParams params;
  params.max_rounds = 200;
  params.early_stopping_rounds = 10;
  Gbdt model(params);
  model.fit(train, rng);
  EXPECT_LT(model.rounds_used(), 100);
}

TEST(Gbdt, JsonRoundTrip) {
  Rng rng(9);
  const Dataset train = xor_dataset(400, rng);
  GbdtParams params;
  params.max_rounds = 30;
  Gbdt model(params);
  model.fit(train, rng);
  const auto restored = model_from_json(Json::parse(model.to_json().dump()));
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_NEAR(model.predict(train.x.row(r)),
                restored->predict(train.x.row(r)), 1e-9);
  }
}

TEST(Gbdt, ClassWeightsShiftScores) {
  Rng rng(10);
  Dataset train = xor_dataset(800, rng, 0.2);
  Gbdt unweighted;
  Rng rng_a(11);
  unweighted.fit(train, rng_a);
  double base = 0.0;
  for (std::size_t r = 0; r < train.size(); ++r) {
    base += unweighted.predict(train.x.row(r));
  }

  for (std::size_t r = 0; r < train.size(); ++r) {
    if (train.y[r] == 1) train.weight[r] = 5.0f;
  }
  Gbdt weighted;
  Rng rng_b(11);
  weighted.fit(train, rng_b);
  double up = 0.0;
  for (std::size_t r = 0; r < train.size(); ++r) {
    up += weighted.predict(train.x.row(r));
  }
  EXPECT_GT(up, base);  // up-weighting positives raises average score
}

TEST(PredictBatch, MatchesSinglePredictions) {
  Rng rng(12);
  const Dataset train = xor_dataset(300, rng);
  Gbdt model;
  model.fit(train, rng);
  const std::vector<double> batch = model.predict_batch(train.x);
  for (std::size_t r = 0; r < train.size(); ++r) {
    EXPECT_DOUBLE_EQ(batch[r], model.predict(train.x.row(r)));
  }
}

TEST(ModelFromJson, RejectsUnknownType) {
  Json bad = Json::object();
  bad.set("type", "alien");
  EXPECT_THROW(model_from_json(bad), std::runtime_error);
}

}  // namespace
}  // namespace memfp::ml
