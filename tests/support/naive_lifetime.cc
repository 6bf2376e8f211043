#include "support/naive_lifetime.h"

namespace memfp::features {
namespace {

// The thresholds of the field studies [12, 29, 30].
constexpr int kCellRepeat = 2;    // CEs at one cell -> cell fault
constexpr int kRowColumns = 2;    // distinct columns in one row -> row fault
constexpr int kColumnRows = 2;    // distinct rows in one column -> column fault
constexpr int kBankRows = 5;      // distinct rows and columns in one bank
constexpr int kBankColumns = 5;   //   -> bank fault
constexpr int kDeviceMinCes = 2;  // CEs on a device -> faulty device

}  // namespace

std::uint64_t naive_pack_cell(const dram::CellCoord& c) {
  return (static_cast<std::uint64_t>(c.rank) << 56) |
         (static_cast<std::uint64_t>(c.device & 0xff) << 48) |
         (static_cast<std::uint64_t>(c.bank & 0xff) << 40) |
         (static_cast<std::uint64_t>(c.row & 0xffffff) << 16) |
         static_cast<std::uint64_t>(c.column & 0xffff);
}

void NaiveLifetimeState::add(const dram::CeEvent& ce) {
  const dram::CellCoord& c = ce.coord;
  const std::uint64_t cell = naive_pack_cell(c);
  if (++cell_counts_[cell] == kCellRepeat) ++cell_faults_;

  const std::uint64_t row = cell >> 16;
  auto& row_cols = row_columns_[row];
  if (row_cols.insert(c.column).second &&
      static_cast<int>(row_cols.size()) == kRowColumns) {
    ++row_faults_;
  }

  const std::uint64_t col =
      (cell & 0xffffff000000ffffULL) | 0xff0000ULL;  // row wildcarded
  auto& col_rows = column_rows_[col];
  if (col_rows.insert(c.row).second &&
      static_cast<int>(col_rows.size()) == kColumnRows) {
    ++column_faults_;
  }

  const std::uint64_t bank = cell >> 40;
  auto& bank_state = banks_[bank];
  bank_state.rows.insert(c.row);
  bank_state.columns.insert(c.column);
  if (!bank_state.counted &&
      static_cast<int>(bank_state.rows.size()) >= kBankRows &&
      static_cast<int>(bank_state.columns.size()) >= kBankColumns) {
    bank_state.counted = true;
    ++bank_faults_;
  }

  const int device = (c.rank << 8) | c.device;
  if (++device_counts_[device] == kDeviceMinCes) ++faulty_devices_;
  devices_seen_.insert(device);

  acc_pattern_.merge(ce.pattern);
  if (first_ce_ < 0) first_ce_ = ce.time;
  last_ce_ = ce.time;
  ++total_ces_;
}

}  // namespace memfp::features
