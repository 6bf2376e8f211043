#include "ml/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace memfp::ml {

double Confusion::precision() const {
  return tp + fp == 0 ? 0.0
                      : static_cast<double>(tp) / static_cast<double>(tp + fp);
}

double Confusion::recall() const {
  return tp + fn == 0 ? 0.0
                      : static_cast<double>(tp) / static_cast<double>(tp + fn);
}

double Confusion::f1() const {
  const double p = precision();
  const double r = recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double Confusion::virr(double cold_migration_fraction) const {
  const double p = precision();
  if (p == 0.0) return recall() == 0.0 ? 0.0 : -1.0;
  return (1.0 - cold_migration_fraction / p) * recall();
}

namespace {

/// Indices sorted by descending score.
std::vector<std::size_t> rank_by_score(const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  return order;
}

}  // namespace

double pr_auc(const std::vector<double>& scores,
              const std::vector<int>& labels) {
  MEMFP_CHECK_EQ(scores.size(), labels.size());
  std::size_t total_pos = 0;
  for (int label : labels) total_pos += label == 1;
  if (total_pos == 0) return 0.0;

  const std::vector<std::size_t> order = rank_by_score(scores);
  double auc = 0.0;
  std::size_t tp = 0, fp = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (labels[order[i]] == 1) {
      ++tp;
      // Average precision: sum precision at each positive hit.
      auc += static_cast<double>(tp) / static_cast<double>(tp + fp);
    } else {
      ++fp;
    }
  }
  return auc / static_cast<double>(total_pos);
}

double roc_auc(const std::vector<double>& scores,
               const std::vector<int>& labels) {
  MEMFP_CHECK_EQ(scores.size(), labels.size());
  // Rank-sum (Mann-Whitney) formulation with tie handling via average ranks.
  std::vector<std::size_t> order = rank_by_score(scores);
  std::reverse(order.begin(), order.end());  // ascending score
  const std::size_t n = order.size();
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

double log_loss(const std::vector<double>& scores,
                const std::vector<int>& labels) {
  MEMFP_CHECK_EQ(scores.size(), labels.size());
  if (scores.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t k = 0; k < scores.size(); ++k) {
    const double p = std::clamp(scores[k], 1e-9, 1.0 - 1e-9);
    total += labels[k] == 1 ? -std::log(p) : -std::log(1.0 - p);
  }
  return total / static_cast<double>(scores.size());
}

}  // namespace memfp::ml
