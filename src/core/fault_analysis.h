// The paper's Section V analyses, computed from observable telemetry:
//  - Fig 4: relative UE rate per inferred fault mode, per platform.
//  - Fig 5: UE rate versus accumulated error-DQ/beat counts and intervals
//    (the bit-level failure-pattern study, Intel platforms).
#pragma once

#include <string>
#include <vector>

#include "core/evaluation.h"
#include "features/windows.h"
#include "sim/trace.h"

namespace memfp::core {

struct FaultModeEntry {
  std::string category;
  std::size_t dimms = 0;     ///< DIMMs whose CE history shows this fault mode
  std::size_t ue_dimms = 0;  ///< ... of which reached a UE
  double ue_rate = 0.0;
  double relative = 0.0;  ///< ue_rate / max ue_rate across categories
};

/// Fig 4 for one platform fleet. Categories: cell / column / row / bank
/// faults, single-device, multi-device.
std::vector<FaultModeEntry> fault_mode_ue_rates(const sim::FleetTrace& fleet);

/// Composition of the UE population: among DIMMs that reached a UE (with CE
/// history), the share whose fault evidence is single- vs multi-device.
/// This is the statistic behind Finding 2's "primary source of UEs".
struct UeComposition {
  std::size_t ue_dimms = 0;
  double single_device_share = 0.0;
  double multi_device_share = 0.0;
};
UeComposition ue_device_composition(const sim::FleetTrace& fleet);

struct BitStatSeries {
  std::string stat;  ///< "error DQs" / "error beats" / "DQ interval" / "beat interval"
  std::vector<int> value;      ///< x axis (clamped at max_value)
  std::vector<std::size_t> dimms;
  std::vector<double> ue_rate;

  /// x value with the highest UE rate among populated buckets.
  int peak_value(std::size_t min_dimms = 5) const;
};

/// Fig 5 for one platform fleet: UE rate grouped by each accumulated
/// error-bit statistic of the DIMM's CE history.
std::vector<BitStatSeries> bit_pattern_ue_rates(const sim::FleetTrace& fleet,
                                                int max_value = 8);

// ---------------------------------------------------------------------------
// Campaign root-cause attribution (ROADMAP item 5): false negatives and
// false positives broken down by the fault class that generated the DIMM's
// CE history, so a sweep result says *which* fault modes a predictor+policy
// misses, not just how many DIMMs.
// ---------------------------------------------------------------------------

/// Exclusive per-DIMM fault class. Unlike the (overlapping) Fig 4 buckets,
/// each DIMM gets exactly one label, by precedence: a sudden UE carries no
/// CE evidence at all; multi-device involvement dominates any geometric
/// mode; then the widest inferred geometry wins (bank > row/column > cell);
/// CE history with no inferred structure is kNone.
enum class FaultClass {
  kNone = 0,
  kCell,
  kRow,
  kColumn,
  kBank,
  kMultiDevice,
  kSudden,
};
inline constexpr std::size_t kFaultClassCount = 7;

const char* fault_class_name(FaultClass fault_class);

/// Classifies one DIMM trace (see FaultClass precedence).
FaultClass dominant_fault_class(const sim::DimmTrace& trace);

/// One row of a campaign's root-cause table: how a predictor+policy treated
/// the evaluated DIMMs of one fault class.
struct FaultClassAttribution {
  FaultClass fault_class = FaultClass::kNone;
  std::size_t dimms = 0;
  std::size_t true_positives = 0;
  std::size_t false_negatives = 0;
  std::size_t false_positives = 0;
  std::size_t true_negatives = 0;
  double fn_rate = 0.0;  ///< FN / positive DIMMs of the class
  double fp_rate = 0.0;  ///< FP / negative DIMMs of the class
};

/// Joins per-DIMM alarm outcomes with their fault classes, counting each
/// DIMM with classify (a late alarm on a positive counts both FN and FP).
/// `classes` and `outcomes` are parallel arrays. Returns kFaultClassCount
/// rows in enum order; absent classes keep dimms == 0.
std::vector<FaultClassAttribution> attribute_outcomes(
    const std::vector<FaultClass>& classes,
    const std::vector<AlarmOutcome>& outcomes,
    const features::PredictionWindows& windows);

}  // namespace memfp::core
