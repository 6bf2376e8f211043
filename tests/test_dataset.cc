#include "ml/dataset.h"

#include <gtest/gtest.h>

#include <set>

namespace memfp::ml {
namespace {

features::SampleSet tiny_sample_set() {
  features::SampleSet set;
  set.schema = features::FeatureSchema::standard().subset({0, 1});
  for (int d = 0; d < 4; ++d) {
    for (int s = 0; s < 3; ++s) {
      features::Sample sample;
      sample.dimm = static_cast<dram::DimmId>(d);
      sample.time = days(s + 1);
      sample.label = d == 0 ? 1 : 0;
      sample.features = {static_cast<float>(d), static_cast<float>(s)};
      set.samples.push_back(sample);
    }
  }
  // One ambiguous sample that must be dropped from training.
  features::Sample too_late;
  too_late.dimm = 0;
  too_late.label = -1;
  too_late.features = {9.0f, 9.0f};
  set.samples.push_back(too_late);
  return set;
}

TEST(Dataset, MakeDatasetDropsAmbiguousSamples) {
  const Dataset dataset = make_dataset(tiny_sample_set());
  EXPECT_EQ(dataset.size(), 12u);
  EXPECT_EQ(dataset.positives(), 3u);
}

TEST(Matrix, PushRowSetsWidth) {
  Matrix m;
  m.push_row(std::vector<float>{1.0f, 2.0f, 3.0f});
  m.push_row(std::vector<float>{4.0f, 5.0f, 6.0f});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.at(1, 2), 6.0f);
}

TEST(SplitDimms, DisjointAndComplete) {
  Rng rng(3);
  std::vector<dram::DimmId> pos{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<dram::DimmId> neg;
  for (dram::DimmId i = 100; i < 200; ++i) neg.push_back(i);
  const DimmSplit split = split_dimms(pos, neg, 0.3, rng);
  std::set<dram::DimmId> train(split.train.begin(), split.train.end());
  std::set<dram::DimmId> test(split.test.begin(), split.test.end());
  EXPECT_EQ(train.size() + test.size(), 110u);
  for (dram::DimmId id : test) EXPECT_EQ(train.count(id), 0u);
}

TEST(SplitDimms, StratifiesPositives) {
  Rng rng(5);
  std::vector<dram::DimmId> pos{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<dram::DimmId> neg;
  for (dram::DimmId i = 100; i < 200; ++i) neg.push_back(i);
  const DimmSplit split = split_dimms(pos, neg, 0.3, rng);
  int test_pos = 0;
  for (dram::DimmId id : split.test) test_pos += id <= 10;
  EXPECT_EQ(test_pos, 3);  // exactly 30% of the positives
}

TEST(RebalanceWeights, HitsTargetShare) {
  Dataset dataset = make_dataset(tiny_sample_set());
  rebalance_weights(dataset, 0.4);
  double pos_weight = 0.0, total = 0.0;
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    total += dataset.weight[r];
    if (dataset.y[r] == 1) pos_weight += dataset.weight[r];
  }
  EXPECT_NEAR(pos_weight / total, 0.4, 1e-9);
}

TEST(RebalanceWeights, NoOpWithoutBothClasses) {
  Dataset dataset = make_dataset(tiny_sample_set());
  for (auto& label : dataset.y) label = 0;
  rebalance_weights(dataset, 0.4);
  for (float w : dataset.weight) EXPECT_EQ(w, 1.0f);
}

}  // namespace
}  // namespace memfp::ml
