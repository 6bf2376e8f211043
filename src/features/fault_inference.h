// Observable fault-mode inference from CE logs (paper Section V).
//
// The operator cannot see physical faults, only error coordinates; fault
// modes are inferred by thresholding the spatial structure of the CE history
// the way the field studies [12, 29, 30] do: repeated errors in one cell, a
// row with errors across several columns, a column with errors across
// several rows, a bank with errors spread over many rows and columns, and
// single- vs multi-device involvement.
//
// FaultState is the one implementation of that rule. It folds one CE
// coordinate at a time, so the extractor's lifetime state (window_state.h)
// updates it along the trace walk, while Fig 4, Finding 2 and the campaign's
// fault-class attribution (core/fault_analysis.h) fold a whole history
// through infer_faults(). Every count only grows, and each one moves exactly
// when its bucket first reaches its threshold, so a fold visits each CE once
// and never rescans.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/flat_map.h"
#include "dram/events.h"

namespace memfp::features {

struct FaultThresholds {
  int cell_repeat;     ///< CEs at one cell -> cell fault
  int row_columns;     ///< distinct columns in one row -> row fault
  int column_rows;     ///< distinct rows in one column -> column fault
  int bank_rows;       ///< distinct rows in a bank (with bank_columns)
  int bank_columns;    ///<   ... -> bank fault
  int device_min_ces;  ///< CEs on a device before it counts as faulty
};

/// The one threshold set: Fig 4, the campaign's attribution and the model's
/// lifetime fault features all read it.
inline constexpr FaultThresholds kFaultThresholds{
    .cell_repeat = 2,
    .row_columns = 2,
    .column_rows = 2,
    .bank_rows = 5,
    .bank_columns = 5,
    .device_min_ces = 2,
};

/// Packed cell address used as the spatial hierarchy key: rank | device |
/// bank | row | column, with shifts chosen so prefixes identify the row
/// (>> 16), bank (>> 40) and device (>> 48) levels.
inline std::uint64_t pack_cell(const dram::CellCoord& c) {
  return (static_cast<std::uint64_t>(c.rank) << 56) |
         (static_cast<std::uint64_t>(c.device & 0xff) << 48) |
         (static_cast<std::uint64_t>(c.bank & 0xff) << 40) |
         (static_cast<std::uint64_t>(c.row & 0xffffff) << 16) |
         static_cast<std::uint64_t>(c.column & 0xffff);
}

/// Whether pack_cell keeps every field of `c` whole, so equal keys mean
/// equal coordinates.
inline bool packs_losslessly(const dram::CellCoord& c) {
  return static_cast<unsigned>(c.rank) < (1u << 8) &&
         static_cast<unsigned>(c.device) < (1u << 8) &&
         static_cast<unsigned>(c.bank) < (1u << 8) &&
         static_cast<unsigned>(c.row) < (1u << 24) &&
         static_cast<unsigned>(c.column) < (1u << 16);
}

/// Exact distinct-value counter up to a cap, saturating after. The fault
/// rules only compare a set's cardinality against a fixed threshold, and
/// every such comparison is dead once the cardinality reaches it, so values
/// beyond the cap need not be remembered for the counts to stay exact. The
/// cap is the threshold, a compile-time argument of insert(). Every set
/// keeps kMaxCap slots whatever its cap: sizing the storage to the cap made
/// extraction over a fleet of short traces ~6% slower (single thread, 4-CPU
/// x86-64 host).
class BoundedDistinct {
 public:
  static constexpr int kMaxCap = 8;

  /// Records `value` if unseen and below Cap; returns whether it was newly
  /// recorded. Once saturated at Cap every insert reports false — exactly
  /// when the threshold conditions reading it can no longer change.
  template <int Cap>
  bool insert(int value) {
    static_assert(Cap >= 1 && Cap <= kMaxCap, "threshold outside 1..kMaxCap");
    if (n_ >= Cap) return false;
    for (int i = 0; i < n_; ++i) {
      if (seen_[static_cast<std::size_t>(i)] == value) return false;
    }
    seen_[static_cast<std::size_t>(n_++)] = value;
    return true;
  }
  int size() const { return n_; }

 private:
  std::int32_t n_ = 0;
  std::array<std::int32_t, kMaxCap> seen_{};
};

/// Inferred fault structure of one DIMM's CE history, folded one CE at a
/// time. The result does not depend on the order of the CEs.
class FaultState {
 public:
  /// Dies on a coordinate wider than pack_cell's fields.
  void add(const dram::CellCoord& c);

  int cell_faults() const { return cell_faults_; }
  int row_faults() const { return row_faults_; }
  int column_faults() const { return column_faults_; }
  int bank_faults() const { return bank_faults_; }
  /// Devices with >= device_min_ces CEs.
  int faulty_devices() const { return faulty_devices_; }
  /// Every seen device has a count entry (counts are incremented on first
  /// sight), so the count map doubles as the seen-device set.
  int devices_seen() const { return static_cast<int>(device_counts_.size()); }
  bool single_device() const { return faulty_devices_ == 1; }
  bool multi_device() const { return faulty_devices_ >= 2; }
  bool any() const {
    return cell_faults_ + row_faults_ + column_faults_ + bank_faults_ > 0 ||
           faulty_devices_ > 0;
  }

 private:
  struct BankState {
    BoundedDistinct rows;
    BoundedDistinct columns;
    bool counted = false;
  };

  int cell_faults_ = 0;
  int row_faults_ = 0;
  int column_faults_ = 0;
  int bank_faults_ = 0;
  int faulty_devices_ = 0;
  FlatMap64<int> cell_counts_;
  FlatMap64<BoundedDistinct> row_columns_;
  FlatMap64<BoundedDistinct> column_rows_;
  FlatMap64<BankState> banks_;
  FlatMap64<int> device_counts_;
};

/// Folds a CE sequence through one FaultState.
FaultState infer_faults(std::span<const dram::CeEvent> ces);

}  // namespace memfp::features
