#include "mlops/online_service.h"

#include "common/logging.h"
#include "core/evaluation.h"
#include "core/protocol.h"
#include "ml/serialize.h"

namespace memfp::mlops {

OnlinePredictionService::OnlinePredictionService(
    const ModelRegistry& registry, dram::Platform platform,
    const FeatureStore& store, AlarmSystem& alarms, Monitoring& monitoring,
    ServingConfig serving)
    : store_(&store),
      alarms_(&alarms),
      monitoring_(&monitoring),
      windows_(store.windows()) {
  const ModelVersion* production = registry.production(platform);
  if (production == nullptr) {
    MEMFP_WARN << "online service: no production model for "
               << dram::platform_name(platform);
    return;
  }
  try {
    model_ = ml::model_from_json(production->artifact);
    threshold_ = production->threshold;
    engine_ = std::make_unique<ServingEngine>(*model_, threshold_, store,
                                              alarms, monitoring,
                                              std::move(serving));
  } catch (const std::exception& e) {
    MEMFP_ERROR << "online service: cannot load artifact v"
                << production->version << ": " << e.what();
  }
}

std::optional<double> OnlinePredictionService::score_dimm(
    const sim::DimmTrace& dimm, SimTime t) {
  if (!engine_) return std::nullopt;
  // Registry models are tree ensembles (model_from_json), so this single-row
  // score runs on the lazily compiled FlatEnsemble built at first tick.
  return engine_->score_row(dimm.id, t, store_->serve(dimm, t));
}

ServingStats OnlinePredictionService::run_over(const sim::FleetTrace& fleet,
                                               SimTime start, SimTime end,
                                               SimDuration cadence) {
  if (!engine_) return {};
  return engine_->run_over(fleet, start, end, cadence);
}

void OnlinePredictionService::apply_feedback(const sim::FleetTrace& fleet) {
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    core::AlarmOutcome outcome = core::ground_truth(
        core::DimmFacts::of(dimm), core::GroundTruth::kPredictableUe);
    outcome.alarm = alarms_->first_alarm(dimm.id);
    // One DIMM's confusion: a late or early alarm on a failing DIMM is both
    // a missed failure and a false alarm.
    ml::Confusion c;
    core::classify(outcome, windows_, c);
    if (c.tp > 0) monitoring_->record_alarm_feedback(true);
    if (c.fn > 0) monitoring_->record_missed_failure();
    if (c.fp > 0) monitoring_->record_alarm_feedback(false);
  }
}

}  // namespace memfp::mlops
