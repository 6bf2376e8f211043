#include "features/fault_inference.h"

#include "common/check.h"

namespace memfp::features {

// A count reaches a threshold on the increment that makes them equal, so a
// threshold below 1 would never trip. BoundedDistinct::insert asserts the
// same for the four distinct-set thresholds.
static_assert(kFaultThresholds.cell_repeat >= 1 &&
              kFaultThresholds.device_min_ces >= 1);

void FaultState::add(const dram::CellCoord& c) {
  MEMFP_CHECK(packs_losslessly(c)) << "cell coordinate outside the packed key";
  const std::uint64_t cell = pack_cell(c);
  const int sightings = ++cell_counts_[cell];
  if (sightings == kFaultThresholds.cell_repeat) ++cell_faults_;

  // Only a cell's first sighting can grow the row, column and bank sets: a
  // repeat carries the same row and column (the key is lossless), which its
  // first sighting either recorded or found saturated, and a saturated set
  // stays saturated. A repeat would insert nothing and re-test a bank
  // condition whose inputs did not move.
  if (sightings == 1) {
    BoundedDistinct& row_cols = row_columns_[cell >> 16];
    if (row_cols.insert<kFaultThresholds.row_columns>(c.column) &&
        row_cols.size() == kFaultThresholds.row_columns) {
      ++row_faults_;
    }

    BoundedDistinct& col_rows =
        column_rows_[(cell & 0xffffff000000ffffULL) | 0xff0000ULL];
    if (col_rows.insert<kFaultThresholds.column_rows>(c.row) &&
        col_rows.size() == kFaultThresholds.column_rows) {
      ++column_faults_;
    }

    BankState& bank_state = banks_[cell >> 40];
    bank_state.rows.insert<kFaultThresholds.bank_rows>(c.row);
    bank_state.columns.insert<kFaultThresholds.bank_columns>(c.column);
    if (!bank_state.counted &&
        bank_state.rows.size() >= kFaultThresholds.bank_rows &&
        bank_state.columns.size() >= kFaultThresholds.bank_columns) {
      bank_state.counted = true;
      ++bank_faults_;
    }
  }

  if (++device_counts_[static_cast<std::uint64_t>((c.rank << 8) | c.device)] ==
      kFaultThresholds.device_min_ces) {
    ++faulty_devices_;
  }
}

FaultState infer_faults(std::span<const dram::CeEvent> ces) {
  FaultState state;
  for (const dram::CeEvent& ce : ces) state.add(ce.coord);
  return state;
}

}  // namespace memfp::features
