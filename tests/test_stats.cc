#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace memfp {
namespace {

TEST(Psi, IdenticalDistributionsNearZero) {
  std::vector<double> a, b;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(i % 10);
    b.push_back(i % 10);
  }
  EXPECT_LT(population_stability_index(a, b, 10), 0.01);
}

TEST(Psi, ShiftedDistributionIsLarge) {
  std::vector<double> a, b;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(static_cast<double>(i % 10));
    b.push_back(static_cast<double>(i % 10) + 8.0);
  }
  EXPECT_GT(population_stability_index(a, b, 10), 0.5);
}

TEST(Psi, EmptyInputIsZero) {
  EXPECT_EQ(population_stability_index({}, {1.0}, 10), 0.0);
  EXPECT_EQ(population_stability_index({1.0}, {}, 10), 0.0);
}

TEST(Psi, SymmetricInMagnitude) {
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(i % 7);
    b.push_back((i % 7) + 2.0);
  }
  const double ab = population_stability_index(a, b, 8);
  const double ba = population_stability_index(b, a, 8);
  EXPECT_NEAR(ab, ba, 0.15 * std::max(ab, ba));
}

}  // namespace
}  // namespace memfp
