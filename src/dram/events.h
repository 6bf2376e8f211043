// Observable memory-error telemetry — the record schema of the BMC / MCE
// logs that the paper's dataset (Section III) consists of. Everything the
// analysis and ML layers consume is made of these records; the hidden fault
// ground truth never leaks past the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "dram/error_pattern.h"
#include "dram/geometry.h"

namespace memfp::dram {

/// Stable DIMM identity within a fleet.
using DimmId = std::uint32_t;

/// One corrected-error log record.
struct CeEvent {
  SimTime time = 0;
  CellCoord coord;
  ErrorPattern pattern;
};

/// One uncorrectable-error record. `had_prior_ce` distinguishes the paper's
/// *predictable* UEs (CE history exists) from *sudden* UEs.
struct UeEvent {
  SimTime time = 0;
  CellCoord coord;
  ErrorPattern pattern;
  bool had_prior_ce = false;
};

/// BMC-side memory events beyond raw errors.
enum class MemEventType { kCeStorm, kCeStormSuppressed, kPageOffline };

struct MemEvent {
  SimTime time = 0;
  MemEventType type = MemEventType::kCeStorm;
};

}  // namespace memfp::dram
