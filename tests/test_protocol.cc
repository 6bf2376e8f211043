// The production train/validation/test split (core::assign_roles). The
// split protocol moves F1 as much as the model does (Wu et al., "DRAM
// Failure Prediction in AIOps"), so its stratification and its handling of
// DIMMs without CE history are pinned here, not only through the goldens.
#include "core/protocol.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace memfp::core {
namespace {

// 230 DIMMs in 10 runs of 23: 3 without CE history (one of them with a
// sudden UE), 4 CE DIMMs with a later UE, 16 CE DIMMs without one.
constexpr std::size_t kNoCe = 30;
constexpr std::size_t kPredictable = 40;
constexpr std::size_t kQuiet = 160;

/// The classes interleaved, under ids that are not indices.
std::vector<DimmFacts> population() {
  std::vector<DimmFacts> dimms(kNoCe + kPredictable + kQuiet);
  for (std::size_t i = 0; i < dimms.size(); ++i) {
    DimmFacts& dimm = dimms[i];
    const std::size_t slot = i % 23;
    dimm.id = static_cast<dram::DimmId>(1000 + 7 * i);
    dimm.has_ce = slot >= 3;
    dimm.predictable = slot >= 3 && slot < 7;
    dimm.has_ue = slot == 0 || dimm.predictable;
  }
  return dimms;
}

std::vector<Role> roles_for(const std::vector<DimmFacts>& dimms,
                            GroundTruth truth, std::uint64_t seed) {
  Rng rng(seed);
  return assign_roles(dimms, SamplingParams{}, truth, rng);
}

struct RoleCounts {
  std::size_t positive[4] = {};  // indexed by Role
  std::size_t negative[4] = {};
};

RoleCounts count_ce_roles(const std::vector<DimmFacts>& dimms,
                          const std::vector<Role>& roles) {
  RoleCounts counts;
  for (std::size_t i = 0; i < dimms.size(); ++i) {
    if (!dimms[i].has_ce) continue;
    const auto role = static_cast<std::size_t>(roles[i]);
    ++(dimms[i].predictable ? counts.positive : counts.negative)[role];
  }
  return counts;
}

TEST(Protocol, AssignRolesIsDisjointAndComplete) {
  const std::vector<DimmFacts> dimms = population();
  ASSERT_EQ(dimms.size(), kPredictable + kQuiet + kNoCe);
  for (const GroundTruth truth :
       {GroundTruth::kPredictableUe, GroundTruth::kAnyUe}) {
    const std::vector<Role> roles = roles_for(dimms, truth, 13);
    ASSERT_EQ(roles.size(), dimms.size());
    std::size_t per_role[4] = {};
    for (std::size_t i = 0; i < dimms.size(); ++i) {
      // Every CE DIMM lands in exactly one of the three evaluated splits.
      if (dimms[i].has_ce) {
        EXPECT_NE(roles[i], Role::kExcluded) << i;
      }
      ++per_role[static_cast<std::size_t>(roles[i])];
    }
    EXPECT_GT(per_role[static_cast<std::size_t>(Role::kTrain)], 0u);
    EXPECT_GT(per_role[static_cast<std::size_t>(Role::kVal)], 0u);
    EXPECT_GT(per_role[static_cast<std::size_t>(Role::kTest)], 0u);
    EXPECT_EQ(per_role[0] + per_role[1] + per_role[2] + per_role[3],
              dimms.size());
  }
}

TEST(Protocol, AssignRolesStratifiesPredictableUe) {
  const std::vector<DimmFacts> dimms = population();
  const SamplingParams sampling;
  ASSERT_EQ(sampling.test_fraction, 0.30);
  ASSERT_EQ(sampling.validation_fraction, 0.25);
  const RoleCounts counts =
      count_ce_roles(dimms, roles_for(dimms, GroundTruth::kPredictableUe, 13));
  const auto at = [](const std::size_t (&by_role)[4], Role role) {
    return by_role[static_cast<std::size_t>(role)];
  };
  // Test takes 30% of each class; validation takes 25% of what is left of
  // each class; training keeps the rest.
  EXPECT_EQ(at(counts.positive, Role::kTest), 12u);   // 0.30 * 40
  EXPECT_EQ(at(counts.negative, Role::kTest), 48u);   // 0.30 * 160
  EXPECT_EQ(at(counts.positive, Role::kVal), 7u);     // 0.25 * 28
  EXPECT_EQ(at(counts.negative, Role::kVal), 28u);    // 0.25 * 112
  EXPECT_EQ(at(counts.positive, Role::kTrain), 21u);
  EXPECT_EQ(at(counts.negative, Role::kTrain), 84u);
}

TEST(Protocol, AssignRolesPlacesNoCeDimmsByGroundTruth) {
  const std::vector<DimmFacts> dimms = population();
  const std::vector<Role> model_level =
      roles_for(dimms, GroundTruth::kPredictableUe, 13);
  const std::vector<Role> policy_level =
      roles_for(dimms, GroundTruth::kAnyUe, 13);
  std::size_t no_ce = 0;
  for (std::size_t i = 0; i < dimms.size(); ++i) {
    if (dimms[i].has_ce) {
      // The rule only moves the no-CE DIMMs: both splits draw the same
      // stream over the same CE DIMMs.
      EXPECT_EQ(model_level[i], policy_level[i]) << i;
      continue;
    }
    ++no_ce;
    EXPECT_EQ(model_level[i], Role::kExcluded) << i;
    EXPECT_EQ(policy_level[i], Role::kTest) << i;
  }
  EXPECT_EQ(no_ce, kNoCe);
}

TEST(Protocol, AssignRolesIsIdenticalForTheSameSeed) {
  const std::vector<DimmFacts> dimms = population();
  for (const GroundTruth truth :
       {GroundTruth::kPredictableUe, GroundTruth::kAnyUe}) {
    EXPECT_EQ(roles_for(dimms, truth, 13), roles_for(dimms, truth, 13));
    EXPECT_NE(roles_for(dimms, truth, 13), roles_for(dimms, truth, 14));
  }
}

}  // namespace
}  // namespace memfp::core
