// Area under the ROC curve: a ranking-quality check the model tests use
// (FT-Transformer learns its task). No src/ path reads it.
#pragma once

#include <vector>

namespace memfp::ml {

/// Rank-sum (Mann-Whitney) ROC-AUC with average ranks for ties; 0.5 when
/// either class is empty.
double roc_auc(const std::vector<double>& scores,
               const std::vector<int>& labels);

}  // namespace memfp::ml
