// Tabular dataset container and the split/rebalancing utilities used by the
// prediction pipeline (split by DIMM, never by sample, so no DIMM leaks
// across train/test). Per-DIMM downsampling is core/protocol.h's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "features/sample.h"

namespace memfp::ml {

/// Row-major float matrix with fixed column count.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  std::span<float> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  void push_row(std::span<const float> values);

  /// Drops all rows but keeps the column count and the data capacity, so a
  /// caller filling batches in a loop (the serving engine) reuses the
  /// allocation instead of reconstructing the matrix per block.
  void clear_rows() {
    rows_ = 0;
    data_.clear();
  }

  /// Gathers column `c` into `out` (resized to rows()). The row-major
  /// stride is paid once per feature here instead of once per element in
  /// the feature-binning loops.
  void gather_column(std::size_t c, std::vector<float>& out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Features + labels + sample provenance (DIMM, time) + per-sample weights.
struct Dataset {
  Matrix x;
  std::vector<int> y;
  std::vector<float> weight;
  std::vector<dram::DimmId> dimm;
  std::vector<SimTime> time;
  /// Indices of categorical columns (from the feature schema).
  std::vector<std::size_t> categorical;

  std::size_t size() const { return y.size(); }
  std::size_t positives() const;

  /// Keeps only the listed rows (in the given order).
  Dataset select(const std::vector<std::size_t>& rows) const;
};

/// Builds a Dataset from trainable samples (label >= 0).
Dataset make_dataset(const features::SampleSet& samples);

/// Splits DIMM ids (not rows!) into train/test with the UE DIMMs stratified,
/// so both sides get their share of scarce positives.
struct DimmSplit {
  std::vector<dram::DimmId> train;
  std::vector<dram::DimmId> test;
};
DimmSplit split_dimms(const std::vector<dram::DimmId>& positive_dimms,
                      const std::vector<dram::DimmId>& negative_dimms,
                      double test_fraction, Rng& rng);

/// Sets per-sample weights so the positive class carries `positive_share`
/// of the total weight (class re-balancing for the imbalanced UE task).
void rebalance_weights(Dataset& dataset, double positive_share);

}  // namespace memfp::ml
