#include "support/roc_auc.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"

namespace memfp::ml {

double roc_auc(const std::vector<double>& scores,
               const std::vector<int>& labels) {
  MEMFP_CHECK_EQ(scores.size(), labels.size());
  // Indices in ascending score order; ties share their average rank, so
  // the order within a tie does not matter.
  const std::size_t n = scores.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });
  std::vector<double> rank(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) /
                                2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = avg_rank;
    i = j + 1;
  }
  double pos_rank_sum = 0.0;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (labels[k] == 1) {
      pos_rank_sum += rank[k];
      ++pos;
    }
  }
  const std::size_t neg = n - pos;
  if (pos == 0 || neg == 0) return 0.5;
  const double u = pos_rank_sum - static_cast<double>(pos) *
                                      (static_cast<double>(pos) + 1.0) / 2.0;
  return u / (static_cast<double>(pos) * static_cast<double>(neg));
}

}  // namespace memfp::ml
