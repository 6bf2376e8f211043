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
