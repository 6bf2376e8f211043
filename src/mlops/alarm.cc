#include "mlops/alarm.h"

#include "core/evaluation.h"
#include "core/protocol.h"

namespace memfp::mlops {

void AlarmSystem::raise(dram::DimmId dimm, SimTime time, double score) {
  for (const Alarm& alarm : alarms_) {
    if (alarm.dimm == dimm) return;  // mitigation already in flight
  }
  alarms_.push_back({dimm, time, score});
}

std::optional<SimTime> AlarmSystem::first_alarm(dram::DimmId dimm) const {
  for (const Alarm& alarm : alarms_) {
    if (alarm.dimm == dimm) return alarm.time;
  }
  return std::nullopt;
}

MitigationReport account_mitigations(
    const sim::FleetTrace& fleet, const AlarmSystem& alarms,
    const features::PredictionWindows& windows,
    const MitigationPolicy& policy) {
  std::vector<core::AlarmOutcome> outcomes;
  outcomes.reserve(fleet.dimms.size());
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    outcomes.push_back(core::ground_truth(core::DimmFacts::of(dimm),
                                          core::GroundTruth::kPredictableUe));
    outcomes.back().alarm = alarms.first_alarm(dimm.id);
  }
  const ml::Confusion c = core::dimm_confusion(outcomes, windows);
  return account_confusion(c.tp, c.fp, c.fn, policy);
}

}  // namespace memfp::mlops
