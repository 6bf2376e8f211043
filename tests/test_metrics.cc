#include "ml/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/roc_auc.h"

namespace memfp::ml {
namespace {

TEST(Confusion, BasicRates) {
  Confusion c{8, 2, 4, 86};
  EXPECT_DOUBLE_EQ(c.precision(), 0.8);
  EXPECT_NEAR(c.recall(), 8.0 / 12.0, 1e-12);
  const double p = 0.8, r = 8.0 / 12.0;
  EXPECT_NEAR(c.f1(), 2 * p * r / (p + r), 1e-12);
}

TEST(Confusion, EmptyDenominators) {
  Confusion c;
  EXPECT_EQ(c.precision(), 0.0);
  EXPECT_EQ(c.recall(), 0.0);
  EXPECT_EQ(c.f1(), 0.0);
}

TEST(Virr, MatchesPaperFormula) {
  // VIRR = (1 - y_c / precision) * recall, y_c = 0.1 (paper Section IV).
  Confusion c{54, 46, 13, 887};  // precision 0.54, recall ~0.806
  const double expected = (1.0 - 0.1 / c.precision()) * c.recall();
  EXPECT_NEAR(c.virr(0.1), expected, 1e-12);
}

TEST(Virr, NegativeWhenPrecisionBelowColdFraction) {
  Confusion c{5, 95, 5, 895};  // precision 0.05 < y_c = 0.1
  EXPECT_LT(c.virr(0.1), 0.0);
}

TEST(Virr, ZeroColdMigrationGivesRecall) {
  Confusion c{6, 2, 2, 90};
  EXPECT_NEAR(c.virr(0.0), c.recall(), 1e-12);
}

TEST(RocAuc, PerfectAndInverted) {
  const std::vector<double> scores{0.9, 0.8, 0.3, 0.1};
  EXPECT_NEAR(roc_auc(scores, {1, 1, 0, 0}), 1.0, 1e-12);
  EXPECT_NEAR(roc_auc(scores, {0, 0, 1, 1}), 0.0, 1e-12);
}

TEST(RocAuc, TiesGiveHalfCredit) {
  const std::vector<double> scores{0.5, 0.5};
  EXPECT_NEAR(roc_auc(scores, {1, 0}), 0.5, 1e-12);
}

TEST(RocAuc, DegenerateClassesGiveHalf) {
  EXPECT_EQ(roc_auc({0.1, 0.2}, {1, 1}), 0.5);
}

TEST(LogLoss, KnownValue) {
  // -log(0.8) for a confident correct prediction.
  EXPECT_NEAR(log_loss({0.8}, {1}), -std::log(0.8), 1e-12);
  EXPECT_NEAR(log_loss({0.8}, {0}), -std::log(0.2), 1e-9);
}

TEST(LogLoss, ClampsExtremeScores) {
  EXPECT_TRUE(std::isfinite(log_loss({0.0}, {1})));
  EXPECT_TRUE(std::isfinite(log_loss({1.0}, {0})));
}

}  // namespace
}  // namespace memfp::ml
