// Naive lifetime state of one DIMM's CE history: the reference the
// incremental fault inference (features::FaultState) and the extractor's
// lifetime features are checked against.
//
// It keeps every distinct row, column and device in unbounded hash sets and
// spells the field-study thresholds out as its own literals, so it shares no
// code and no constant with the implementation it checks. It is a test
// oracle: nothing under src/ depends on it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/time.h"
#include "dram/error_pattern.h"
#include "dram/events.h"

namespace memfp::features {

/// rank | device | bank | row | column, masked to 8/8/8/24/16 bits.
std::uint64_t naive_pack_cell(const dram::CellCoord& c);

/// Lifetime fault structure of the naive extractor, updated one CE at a time.
class NaiveLifetimeState {
 public:
  void add(const dram::CeEvent& ce);

  int cell_faults() const { return cell_faults_; }
  int row_faults() const { return row_faults_; }
  int column_faults() const { return column_faults_; }
  int bank_faults() const { return bank_faults_; }
  int faulty_devices() const { return faulty_devices_; }
  int devices_seen() const { return static_cast<int>(devices_seen_.size()); }
  const dram::ErrorPattern& pattern() const { return acc_pattern_; }
  SimTime first_ce() const { return first_ce_; }
  SimTime last_ce() const { return last_ce_; }
  std::uint64_t total_ces() const { return total_ces_; }

 private:
  struct BankState {
    std::unordered_set<int> rows;
    std::unordered_set<int> columns;
    bool counted = false;
  };

  int cell_faults_ = 0;
  int row_faults_ = 0;
  int column_faults_ = 0;
  int bank_faults_ = 0;
  int faulty_devices_ = 0;
  std::unordered_map<std::uint64_t, int> cell_counts_;
  std::unordered_map<std::uint64_t, std::unordered_set<int>> row_columns_;
  std::unordered_map<std::uint64_t, std::unordered_set<int>> column_rows_;
  std::unordered_map<std::uint64_t, BankState> banks_;
  std::unordered_map<int, int> device_counts_;
  std::unordered_set<int> devices_seen_;
  dram::ErrorPattern acc_pattern_;
  SimTime first_ce_ = -1;
  SimTime last_ce_ = -1;
  std::uint64_t total_ces_ = 0;
};

}  // namespace memfp::features
