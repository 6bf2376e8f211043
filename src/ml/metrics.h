// Evaluation metrics for failure prediction (paper Section IV): precision,
// recall, F1 and the VM Interruption Reduction Rate (VIRR) of a DIMM-level
// confusion matrix, plus the log loss that GBDT and FT-Transformer early
// stopping read.
#pragma once

#include <cstddef>
#include <vector>

namespace memfp::ml {

struct Confusion {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;
  std::size_t tn = 0;

  double precision() const;
  double recall() const;
  double f1() const;
  /// VIRR = (1 - y_c / precision) * recall [29]. Negative when precision
  /// falls below the cold-migration fraction y_c: the predictor then causes
  /// more VM interruptions than it prevents.
  double virr(double cold_migration_fraction = 0.1) const;
};

/// Binary cross-entropy of probability scores.
double log_loss(const std::vector<double>& scores,
                const std::vector<int>& labels);

}  // namespace memfp::ml
