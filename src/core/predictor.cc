#include "core/predictor.h"

#include <stdexcept>

#include "common/logging.h"

namespace memfp::core {

MemoryFailurePredictor::MemoryFailurePredictor(dram::Platform platform)
    : MemoryFailurePredictor(platform, Options{}) {}

MemoryFailurePredictor::MemoryFailurePredictor(dram::Platform platform,
                                               Options options)
    : platform_(platform), options_(options), extractor_(options.windows) {}

void MemoryFailurePredictor::train(const sim::FleetTrace& fleet) {
  if (fleet.platform != platform_) {
    throw std::invalid_argument(
        "MemoryFailurePredictor: fleet platform mismatch");
  }
  // Reuse the experiment pipeline with a zero test fraction: everything goes
  // into training + the threshold-tuning validation fold.
  PipelineConfig config;
  static_cast<SamplingParams&>(config) = options_.sampling;
  config.test_fraction = 0.0;
  config.windows = options_.windows;
  config.eval_cadence = options_.eval_cadence;

  Experiment experiment(fleet, config);
  auto [result, model] = experiment.run_with_model(options_.algorithm);
  threshold_ = result.threshold;
  model_ = std::move(model);
  MEMFP_INFO << "predictor trained on " << dram::platform_name(platform_)
             << ", threshold " << threshold_;
}

double MemoryFailurePredictor::score(const sim::DimmTrace& dimm,
                                     SimTime t) const {
  if (!model_) throw std::logic_error("MemoryFailurePredictor: not trained");
  const std::vector<float> features = extractor_.features_at(dimm, t);
  if (features.empty()) return 0.0;
  // Tree-ensemble models serve this through the compiled FlatEnsemble
  // single-row walk (same score bits as the pointer walker, ~no pointer
  // chasing); see DESIGN.md "Flattened ensemble inference".
  return model_->predict(features);
}

bool MemoryFailurePredictor::predict(const sim::DimmTrace& dimm,
                                     SimTime t) const {
  return score(dimm, t) >= threshold_;
}

Json MemoryFailurePredictor::to_json() const {
  Json out = Json::object();
  out.set("platform", dram::platform_name(platform_));
  out.set("algorithm", algorithm_name(options_.algorithm));
  out.set("threshold", threshold_);
  if (model_) out.set("model", model_->to_json());
  return out;
}

}  // namespace memfp::core
