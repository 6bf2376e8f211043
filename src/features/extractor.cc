#include "features/extractor.h"

#include <algorithm>
#include <utility>

namespace memfp::features {

FeatureExtractor::FeatureExtractor(PredictionWindows windows)
    : schema_(FeatureSchema::standard()), windows_(windows) {}

std::vector<Sample> FeatureExtractor::extract(const sim::DimmTrace& trace,
                                              SimTime horizon) const {
  std::vector<Sample> samples;
  if (trace.ces.empty()) return samples;

  // Samples stop strictly before the UE: the DIMM is retired at that point.
  const SimTime end =
      trace.ue ? std::min(horizon, trace.ue->time - 1) : horizon;

  OnlineExtractorState state(windows_, trace.config, trace.workload,
                             schema_.size());
  std::size_t next_ce = 0;
  std::size_t next_event = 0;
  std::vector<float> features;
  for (SimTime t = windows_.cadence; t <= end; t += windows_.cadence) {
    while (next_ce < trace.ces.size() && trace.ces[next_ce].time <= t) {
      state.ingest_ce_at(t, trace.ces[next_ce]);
      ++next_ce;
    }
    while (next_event < trace.events.size() &&
           trace.events[next_event].time <= t) {
      state.ingest_event_at(t, trace.events[next_event]);
      ++next_event;
    }
    state.features_at(t, features);
    if (features.empty()) continue;  // no CE in the observation window

    Sample sample;
    sample.dimm = trace.id;
    sample.time = t;
    sample.label = trace.ue ? windows_.label_for(t, trace.ue->time) : 0;
    sample.features = std::move(features);
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<float> FeatureExtractor::features_at(const sim::DimmTrace& trace,
                                                 SimTime t) const {
  if (t <= 0) return {};
  // One-shot query: fold the trace prefix straight into a fresh streaming
  // state. No trace copy, no throwaway extractor — but repeated queries
  // against the same DIMM should hold an open_stream() state instead.
  OnlineExtractorState state = open_stream(trace.config, trace.workload);
  for (const dram::CeEvent& ce : trace.ces) {
    if (ce.time > t) break;
    state.ingest_ce_at(t, ce);
  }
  for (const dram::MemEvent& event : trace.events) {
    if (event.time > t) break;
    state.ingest_event_at(t, event);
  }
  return state.features_at(t);
}

OnlineExtractorState FeatureExtractor::open_stream(
    const dram::DimmConfig& config, const sim::WorkloadStats& workload) const {
  return OnlineExtractorState(windows_, config, workload, schema_.size());
}

}  // namespace memfp::features
