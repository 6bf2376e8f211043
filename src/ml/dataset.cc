#include "ml/dataset.h"

#include "common/check.h"

namespace memfp::ml {

void Matrix::push_row(std::span<const float> values) {
  if (rows_ == 0 && cols_ == 0) cols_ = values.size();
  MEMFP_CHECK_EQ(values.size(), cols_) << "row width must match the matrix";
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

void Matrix::gather_column(std::size_t c, std::vector<float>& out) const {
  out.resize(rows_);
  const float* base = data_.data() + c;
  for (std::size_t r = 0; r < rows_; ++r) out[r] = base[r * cols_];
}

std::size_t Dataset::positives() const {
  std::size_t count = 0;
  for (int label : y) count += label == 1;
  return count;
}

Dataset make_dataset(const features::SampleSet& samples) {
  Dataset dataset;
  for (std::size_t i = 0; i < samples.schema.size(); ++i) {
    if (samples.schema.def(i).categorical) dataset.categorical.push_back(i);
  }
  for (const features::Sample& sample : samples.samples) {
    if (!sample.trainable()) continue;
    dataset.x.push_row(sample.features);
    dataset.y.push_back(sample.label);
    dataset.weight.push_back(1.0f);
    dataset.dimm.push_back(sample.dimm);
    dataset.time.push_back(sample.time);
  }
  return dataset;
}

DimmSplit split_dimms(const std::vector<dram::DimmId>& positive_dimms,
                      const std::vector<dram::DimmId>& negative_dimms,
                      double test_fraction, Rng& rng) {
  DimmSplit split;
  auto assign = [&](std::vector<dram::DimmId> ids) {
    rng.shuffle(ids);
    const auto test_count = static_cast<std::size_t>(
        static_cast<double>(ids.size()) * test_fraction + 0.5);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      (i < test_count ? split.test : split.train).push_back(ids[i]);
    }
  };
  assign(positive_dimms);
  assign(negative_dimms);
  return split;
}

void rebalance_weights(Dataset& dataset, double positive_share) {
  const std::size_t positives = dataset.positives();
  const std::size_t negatives = dataset.size() - positives;
  if (positives == 0 || negatives == 0) return;
  const double positive_weight =
      positive_share * static_cast<double>(negatives) /
      ((1.0 - positive_share) * static_cast<double>(positives));
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    dataset.weight[r] = dataset.y[r] == 1
                            ? static_cast<float>(positive_weight)
                            : 1.0f;
  }
}

}  // namespace memfp::ml
