#include "ml/ft_transformer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "support/roc_auc.h"

namespace memfp::ml {
namespace {

/// Mixed numeric + categorical task: y depends on one numeric feature and
/// one categorical code.
Dataset mixed_dataset(std::size_t n, Rng& rng) {
  Dataset d;
  d.categorical = {2};
  for (std::size_t i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.normal());
    const float x1 = static_cast<float>(rng.normal());
    const int cat = static_cast<int>(rng.uniform_u64(3));
    const double logit = 1.5 * x0 + (cat == 2 ? 2.0 : -0.5);
    const int y = rng.bernoulli(1.0 / (1.0 + std::exp(-logit))) ? 1 : 0;
    d.x.push_row(std::vector<float>{x0, x1, static_cast<float>(cat)});
    d.y.push_back(y);
    d.weight.push_back(1.0f);
    d.dimm.push_back(static_cast<dram::DimmId>(i));
    d.time.push_back(0);
  }
  return d;
}

FtTransformerParams small_params() {
  FtTransformerParams p;
  p.d_model = 8;
  p.blocks = 1;
  p.epochs = 16;
  p.early_stopping_epochs = 16;
  p.max_train_rows = 2000;
  return p;
}

TEST(FtTransformer, LearnsMixedTask) {
  Rng rng(1);
  const Dataset train = mixed_dataset(2000, rng);
  const Dataset test = mixed_dataset(500, rng);
  FtTransformer model(small_params());
  model.fit(train, rng);
  const std::vector<double> scores = model.predict_batch(test.x);
  EXPECT_GT(roc_auc(scores, test.y), 0.74);
}

TEST(FtTransformer, UsesCategoricalSignal) {
  // Same task with the numeric signal removed: only the embedding can help.
  Rng rng(2);
  Dataset train = mixed_dataset(2000, rng);
  for (std::size_t r = 0; r < train.size(); ++r) {
    train.x.at(r, 0) = 0.0f;
    train.x.at(r, 1) = 0.0f;
  }
  FtTransformer model(small_params());
  model.fit(train, rng);
  const std::vector<double> scores = model.predict_batch(train.x);
  EXPECT_GT(roc_auc(scores, train.y), 0.60);
}

TEST(FtTransformer, PredictMatchesBatch) {
  Rng rng(3);
  const Dataset train = mixed_dataset(800, rng);
  FtTransformer model(small_params());
  model.fit(train, rng);
  const std::vector<double> batch = model.predict_batch(train.x);
  ASSERT_EQ(batch.size(), train.size());
  for (std::size_t r = 0; r < train.size(); ++r) {
    // Bit equality: a row's score must not depend on its batch.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(model.predict(train.x.row(r))),
              std::bit_cast<std::uint64_t>(batch[r]))
        << r;
  }
}

TEST(FtTransformer, DeterministicGivenSeed) {
  Rng rng_data(4);
  const Dataset train = mixed_dataset(600, rng_data);
  FtTransformer a(small_params()), b(small_params());
  Rng rng_a(5), rng_b(5);
  a.fit(train, rng_a);
  b.fit(train, rng_b);
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_DOUBLE_EQ(a.predict(train.x.row(r)), b.predict(train.x.row(r)));
  }
}

TEST(FtTransformer, ScoresAreProbabilities) {
  Rng rng(6);
  const Dataset train = mixed_dataset(600, rng);
  FtTransformer model(small_params());
  model.fit(train, rng);
  for (double p : model.predict_batch(train.x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(FtTransformer, UnfittedPredictsHalfBatchZeros) {
  FtTransformer model(small_params());
  Matrix x;
  x.push_row(std::vector<float>{0.0f, 0.0f, 0.0f});
  EXPECT_EQ(model.predict_batch(x)[0], 0.0);
}

TEST(FtTransformer, ExportContainsWeights) {
  Rng rng(7);
  const Dataset train = mixed_dataset(400, rng);
  FtTransformer model(small_params());
  model.fit(train, rng);
  const Json exported = model.to_json();
  EXPECT_EQ(exported.at("type").as_string(), "ft_transformer");
  EXPECT_GT(exported.at("tensors").as_array().size(), 10u);
}

}  // namespace
}  // namespace memfp::ml
