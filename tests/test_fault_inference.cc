#include "features/fault_inference.h"

#include <gtest/gtest.h>

#include "sim/fleet.h"
#include "sim/scenario.h"
#include "support/naive_lifetime.h"

namespace memfp::features {
namespace {

dram::CeEvent ce(int device, int bank, int row, int column) {
  dram::CeEvent event;
  event.coord = {0, device, bank, row, column};
  event.pattern.add({static_cast<std::uint8_t>(device * 4), 0});
  return event;
}

TEST(FaultInference, EmptyHistory) {
  const FaultState result = infer_faults({});
  EXPECT_FALSE(result.any());
  EXPECT_FALSE(result.single_device());
  EXPECT_FALSE(result.multi_device());
}

TEST(FaultInference, RepeatedCellIsCellFault) {
  std::vector<dram::CeEvent> ces{ce(1, 2, 100, 50), ce(1, 2, 100, 50)};
  const FaultState result = infer_faults(ces);
  EXPECT_EQ(result.cell_faults(), 1);
  EXPECT_EQ(result.row_faults(), 0);
  EXPECT_EQ(result.column_faults(), 0);
  EXPECT_TRUE(result.single_device());
}

TEST(FaultInference, SingleCeIsNoFault) {
  std::vector<dram::CeEvent> ces{ce(1, 2, 100, 50)};
  const FaultState result = infer_faults(ces);
  EXPECT_EQ(result.cell_faults(), 0);
  EXPECT_EQ(result.faulty_devices(), 0);
}

TEST(FaultInference, RowFaultNeedsDistinctColumns) {
  std::vector<dram::CeEvent> ces{ce(0, 1, 500, 10), ce(0, 1, 500, 20)};
  const FaultState result = infer_faults(ces);
  EXPECT_EQ(result.row_faults(), 1);
  EXPECT_EQ(result.cell_faults(), 0);
}

TEST(FaultInference, ColumnFaultNeedsDistinctRows) {
  std::vector<dram::CeEvent> ces{ce(0, 1, 10, 99), ce(0, 1, 20, 99)};
  const FaultState result = infer_faults(ces);
  EXPECT_EQ(result.column_faults(), 1);
  EXPECT_EQ(result.row_faults(), 0);
}

TEST(FaultInference, BankFaultNeedsSpreadRowsAndColumns) {
  std::vector<dram::CeEvent> ces;
  for (int i = 0; i < 5; ++i) {
    ces.push_back(ce(2, 3, 100 + i, 10 + i));
  }
  const FaultState result = infer_faults(ces);
  EXPECT_EQ(result.bank_faults(), 1);
}

TEST(FaultInference, ConcentratedRowIsNotBankFault) {
  std::vector<dram::CeEvent> ces;
  for (int i = 0; i < 10; ++i) {
    ces.push_back(ce(2, 3, 100, 10 + i));  // one row, many columns
  }
  const FaultState result = infer_faults(ces);
  EXPECT_EQ(result.bank_faults(), 0);
  EXPECT_EQ(result.row_faults(), 1);
}

TEST(FaultInference, MultiDeviceDetection) {
  std::vector<dram::CeEvent> ces{ce(0, 0, 1, 1), ce(0, 0, 1, 1),
                                 ce(7, 0, 2, 2), ce(7, 0, 2, 2)};
  const FaultState result = infer_faults(ces);
  EXPECT_EQ(result.faulty_devices(), 2);
  EXPECT_TRUE(result.multi_device());
  EXPECT_FALSE(result.single_device());
}

TEST(FaultInference, DeviceNeedsMinimumCes) {
  // One CE on a second device does not make it faulty.
  std::vector<dram::CeEvent> ces{ce(0, 0, 1, 1), ce(0, 0, 1, 1),
                                 ce(7, 0, 2, 2)};
  const FaultState result = infer_faults(ces);
  EXPECT_EQ(result.faulty_devices(), 1);
  EXPECT_TRUE(result.single_device());
}

TEST(FaultInference, RankSeparatesDevices) {
  dram::CeEvent a = ce(3, 0, 1, 1);
  dram::CeEvent b = ce(3, 0, 1, 1);
  b.coord.rank = 1;
  const FaultState result = infer_faults(std::vector<dram::CeEvent>{a, b, a, b});
  EXPECT_EQ(result.faulty_devices(), 2);
}

TEST(FaultInference, MatchesNaiveOracleOnSimulatedFleets) {
  for (const sim::ScenarioParams& scenario :
       {sim::purley_scenario(), sim::whitley_scenario(),
        sim::k920_scenario()}) {
    const sim::FleetTrace fleet = sim::simulate_fleet(scenario.scaled(0.05));
    std::size_t dimms_with_faults = 0;
    for (const sim::DimmTrace& dimm : fleet.dimms) {
      NaiveLifetimeState oracle;
      for (const dram::CeEvent& event : dimm.ces) oracle.add(event);
      const FaultState result = infer_faults(dimm.ces);
      SCOPED_TRACE(testing::Message()
                   << dram::platform_name(fleet.platform) << " DIMM " << dimm.id);
      EXPECT_EQ(result.cell_faults(), oracle.cell_faults());
      EXPECT_EQ(result.row_faults(), oracle.row_faults());
      EXPECT_EQ(result.column_faults(), oracle.column_faults());
      EXPECT_EQ(result.bank_faults(), oracle.bank_faults());
      EXPECT_EQ(result.faulty_devices(), oracle.faulty_devices());
      EXPECT_EQ(result.devices_seen(), oracle.devices_seen());
      dimms_with_faults += result.any();
    }
    // The fleet must exercise the rule, not only empty histories.
    EXPECT_GT(dimms_with_faults, 10u);
  }
}

TEST(FaultInferenceDeathTest, CoordinateOutsidePackedKeyDies) {
  // Column 1 << 16 does not fit the key's 16 column bits; masking it would
  // alias column 0 of the same row.
  std::vector<dram::CeEvent> ces{ce(0, 0, 1, 0), ce(0, 0, 1, 1 << 16)};
  EXPECT_DEATH(infer_faults(ces), "outside the packed key");
}

}  // namespace
}  // namespace memfp::features
