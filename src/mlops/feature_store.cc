#include "mlops/feature_store.h"

namespace memfp::mlops {

FeatureStore::FeatureStore(features::PredictionWindows windows)
    : extractor_(windows) {}

Json FeatureStore::catalog() const {
  Json entries = Json::array();
  const features::FeatureSchema& schema = extractor_.schema();
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const features::FeatureDef& def = schema.def(i);
    Json entry = Json::object();
    entry.set("name", def.name);
    entry.set("group", features::feature_group_name(def.group));
    entry.set("type", def.categorical ? "categorical" : "numeric");
    if (def.categorical) entry.set("cardinality", def.cardinality);
    entries.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("version", catalog_version_);
  out.set("features", std::move(entries));
  return out;
}

std::vector<float> FeatureStore::serve(const sim::DimmTrace& trace,
                                       SimTime t) const {
  return extractor_.features_at(trace, t);
}

features::OnlineExtractorState FeatureStore::open_stream(
    const sim::DimmTrace& trace) const {
  return extractor_.open_stream(trace.config, trace.workload);
}

bool FeatureStore::check_consistency(const sim::DimmTrace& trace, SimTime t,
                                     SimTime horizon) const {
  const std::vector<float> served = serve(trace, t);
  const std::vector<features::Sample> batch =
      extractor_.extract(trace, horizon);
  const features::Sample* at_t = nullptr;
  for (const features::Sample& sample : batch) {
    if (sample.time == t) {
      at_t = &sample;
      break;
    }
  }
  if (at_t == nullptr) return served.empty();
  return at_t->features == served;
}

}  // namespace memfp::mlops
