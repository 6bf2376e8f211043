// Reproduction of the rule-based "Risky CE Pattern" predictor of Li et al.
// (SC'22, [7] in the paper): per-manufacturer risky error-bit patterns,
// mined from a training fleet, that flag a DIMM as failure-prone the moment
// its accumulated per-device DQ/beat error map matches the rule.
//
// The original is defined against the ECC of Intel Skylake/Cascade Lake
// (Purley). Exactly as in the paper's Table II, it has no counterpart for
// Whitley or K920 — the pipeline reports "X" there.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/time.h"
#include "dram/geometry.h"
#include "features/windows.h"
#include "sim/trace.h"

namespace memfp::baseline {

/// One candidate rule over a device's accumulated error-bit map.
struct PatternRule {
  int min_dq = 2;
  int min_beats = 2;
  int min_beat_span = 4;
  int min_ces = 1;  ///< lifetime CE count gate

  /// The device-map gates, on one device's accumulated DQ count, beat count
  /// and beat span.
  bool map_matches(int dq_count, int beat_count, int beat_span) const;

  bool operator==(const PatternRule&) const = default;
};

/// Candidate rule grid `RiskyCePattern::fit` searches, in tie-break order:
/// the plausible neighbourhood of the published Skylake/Cascade Lake risky
/// patterns.
std::vector<PatternRule> candidate_rules();

/// First time the trace's CE history matches `rule`: some device's
/// accumulated map meets the map gates and the lifetime CE count reaches
/// `min_ces`, checked after every CE. nullopt when it never fires.
std::optional<SimTime> first_alarm(const PatternRule& rule,
                                   const sim::DimmTrace& trace);

class RiskyCePattern {
 public:
  explicit RiskyCePattern(features::PredictionWindows windows = {});

  /// Mines the best rule per manufacturer on training traces (selected by
  /// DIMM-level F1 with the alarm-lead semantics of Section IV). Each trace
  /// is replayed once; every candidate rule is scored from that replay.
  void fit(const std::vector<const sim::DimmTrace*>& train);

  /// First time the DIMM's CE history matches its manufacturer's rule
  /// (checked after every CE); nullopt when it never fires.
  std::optional<SimTime> first_alarm(const sim::DimmTrace& trace) const;

  const std::map<dram::Manufacturer, PatternRule>& rules() const {
    return rules_;
  }

 private:
  features::PredictionWindows windows_;
  std::map<dram::Manufacturer, PatternRule> rules_;
};

}  // namespace memfp::baseline
