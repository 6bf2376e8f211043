#include "core/fault_analysis.h"

#include <algorithm>

#include "features/fault_inference.h"

namespace memfp::core {

std::vector<FaultModeEntry> fault_mode_ue_rates(const sim::FleetTrace& fleet) {
  struct Bucket {
    std::size_t dimms = 0;
    std::size_t ue = 0;
  };
  Bucket cell, column, row, bank, single_device, multi_device;

  for (const sim::DimmTrace& dimm : fleet.dimms) {
    if (dimm.ces.empty()) continue;  // sudden UEs carry no fault evidence
    const features::FaultState faults = features::infer_faults(dimm.ces);
    const bool ue = dimm.has_ue();
    const auto tally = [ue](Bucket& bucket, bool present) {
      if (!present) return;
      ++bucket.dimms;
      bucket.ue += ue;
    };
    tally(cell, faults.cell_faults() > 0);
    tally(column, faults.column_faults() > 0);
    tally(row, faults.row_faults() > 0);
    tally(bank, faults.bank_faults() > 0);
    tally(single_device, faults.single_device());
    tally(multi_device, faults.multi_device());
  }

  const auto make = [](const char* name, const Bucket& bucket) {
    FaultModeEntry entry;
    entry.category = name;
    entry.dimms = bucket.dimms;
    entry.ue_dimms = bucket.ue;
    entry.ue_rate = bucket.dimms == 0
                        ? 0.0
                        : static_cast<double>(bucket.ue) /
                              static_cast<double>(bucket.dimms);
    return entry;
  };
  std::vector<FaultModeEntry> entries{
      make("cell", cell),       make("column", column),
      make("row", row),         make("bank", bank),
      make("single-device", single_device),
      make("multi-device", multi_device),
  };
  double max_rate = 0.0;
  for (const FaultModeEntry& entry : entries) {
    max_rate = std::max(max_rate, entry.ue_rate);
  }
  for (FaultModeEntry& entry : entries) {
    entry.relative = max_rate == 0.0 ? 0.0 : entry.ue_rate / max_rate;
  }
  return entries;
}

UeComposition ue_device_composition(const sim::FleetTrace& fleet) {
  UeComposition comp;
  std::size_t single = 0, multi = 0;
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    if (!dimm.has_ue() || dimm.ces.empty()) continue;
    ++comp.ue_dimms;
    if (features::infer_faults(dimm.ces).multi_device()) ++multi;
    else ++single;
  }
  if (comp.ue_dimms > 0) {
    comp.single_device_share =
        static_cast<double>(single) / static_cast<double>(comp.ue_dimms);
    comp.multi_device_share =
        static_cast<double>(multi) / static_cast<double>(comp.ue_dimms);
  }
  return comp;
}

int BitStatSeries::peak_value(std::size_t min_dimms) const {
  int best = 0;
  double best_rate = -1.0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (dimms[i] >= min_dimms && ue_rate[i] > best_rate) {
      best_rate = ue_rate[i];
      best = value[i];
    }
  }
  return best;
}

std::vector<BitStatSeries> bit_pattern_ue_rates(const sim::FleetTrace& fleet,
                                                int max_value) {
  const char* names[] = {"error DQs", "error beats", "DQ interval",
                         "beat interval"};
  std::vector<BitStatSeries> series(4);
  for (int s = 0; s < 4; ++s) {
    series[static_cast<std::size_t>(s)].stat = names[s];
    for (int v = 0; v <= max_value; ++v) {
      series[static_cast<std::size_t>(s)].value.push_back(v);
      series[static_cast<std::size_t>(s)].dimms.push_back(0);
      series[static_cast<std::size_t>(s)].ue_rate.push_back(0.0);
    }
  }
  // First pass: accumulate UE hits per bucket (ue_rate holds counts).
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    if (dimm.ces.empty()) continue;
    dram::ErrorPattern accumulated;
    for (const dram::CeEvent& ce : dimm.ces) accumulated.merge(ce.pattern);
    const int stats[4] = {accumulated.dq_count(), accumulated.beat_count(),
                          accumulated.max_dq_interval(),
                          accumulated.max_beat_interval()};
    const bool ue = dimm.has_ue();
    for (int s = 0; s < 4; ++s) {
      const auto v =
          static_cast<std::size_t>(std::clamp(stats[s], 0, max_value));
      ++series[static_cast<std::size_t>(s)].dimms[v];
      series[static_cast<std::size_t>(s)].ue_rate[v] += ue ? 1.0 : 0.0;
    }
  }
  for (BitStatSeries& sr : series) {
    for (std::size_t i = 0; i < sr.value.size(); ++i) {
      sr.ue_rate[i] = sr.dimms[i] == 0
                          ? 0.0
                          : sr.ue_rate[i] / static_cast<double>(sr.dimms[i]);
    }
  }
  return series;
}

const char* fault_class_name(FaultClass fault_class) {
  switch (fault_class) {
    case FaultClass::kNone:
      return "none";
    case FaultClass::kCell:
      return "cell";
    case FaultClass::kRow:
      return "row";
    case FaultClass::kColumn:
      return "column";
    case FaultClass::kBank:
      return "bank";
    case FaultClass::kMultiDevice:
      return "multi-device";
    case FaultClass::kSudden:
      return "sudden";
  }
  return "?";
}

FaultClass dominant_fault_class(const sim::DimmTrace& trace) {
  if (trace.ces.empty()) {
    return trace.has_ue() ? FaultClass::kSudden : FaultClass::kNone;
  }
  const features::FaultState faults = features::infer_faults(trace.ces);
  if (faults.multi_device()) return FaultClass::kMultiDevice;
  if (faults.bank_faults() > 0) return FaultClass::kBank;
  // Row vs column ties break toward the mode with more inferred instances;
  // equality keeps row (the mode field studies report as more UE-prone).
  if (faults.row_faults() > 0 || faults.column_faults() > 0) {
    return faults.row_faults() >= faults.column_faults() ? FaultClass::kRow
                                                         : FaultClass::kColumn;
  }
  if (faults.cell_faults() > 0) return FaultClass::kCell;
  return FaultClass::kNone;
}

std::vector<FaultClassAttribution> attribute_outcomes(
    const std::vector<FaultClass>& classes,
    const std::vector<AlarmOutcome>& outcomes,
    const features::PredictionWindows& windows) {
  std::vector<FaultClassAttribution> table(kFaultClassCount);
  std::vector<ml::Confusion> counts(kFaultClassCount);
  const std::size_t n = std::min(classes.size(), outcomes.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(classes[i]);
    ++table[c].dimms;
    classify(outcomes[i], windows, counts[c]);
  }
  for (std::size_t c = 0; c < kFaultClassCount; ++c) {
    FaultClassAttribution& row = table[c];
    row.fault_class = static_cast<FaultClass>(c);
    row.true_positives = counts[c].tp;
    row.false_negatives = counts[c].fn;
    row.false_positives = counts[c].fp;
    row.true_negatives = counts[c].tn;
    const std::size_t positives = row.true_positives + row.false_negatives;
    if (positives > 0) {
      row.fn_rate = static_cast<double>(row.false_negatives) /
                    static_cast<double>(positives);
    }
    // fp_rate denominator: negative DIMMs of the class. A late alarm on a
    // positive counts FP too (the migration was spent), but only alarms on
    // actual negatives enter the rate — those are the negatives that are
    // neither TN nor positive.
    const std::size_t negative_dimms = row.dimms - positives;
    if (negative_dimms > 0) {
      const std::size_t fp_on_negatives = negative_dimms - row.true_negatives;
      row.fp_rate = static_cast<double>(fp_on_negatives) /
                    static_cast<double>(negative_dimms);
    }
  }
  return table;
}

}  // namespace memfp::core
