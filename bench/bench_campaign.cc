// Campaign engine bench (ROADMAP item 5): runs the same ≥24-point
// fault × ECC × predictor × policy sweep twice — once through one engine's
// content-addressed stage cache (work-sharing path) and once naively, one
// fresh engine per point, which re-simulates, re-extracts, re-trains and
// re-scores every point — and records the wall-clock ratio. Both runs use
// the same fixed thread count, and the folded campaign hashes must match:
// the speedup is pure work-sharing, not a different computation.
//
// Usage: bench_campaign [BENCH_campaign.json]
//   With a path, writes the machine-readable trajectory (what
//   tools/run_benches.sh records); without, prints the tables only.
//   MEMFP_BENCH_SCALE scales the simulated fleets (e.g. 0.1 for a smoke
//   run; the naive leg is the expensive one).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "core/campaign.h"
#include "core/fault_analysis.h"
#include "sim/scenario.h"

namespace {

using namespace memfp;

constexpr int kThreads = 4;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// 2 scenarios x 2 ECC x 2 predictors x 6 policies = 48 config points.
/// The shared path runs 4 simulates, 8 extract/train/score pipelines and 8
/// vectorized policy sweeps; the naive path runs all 48 pipelines.
core::CampaignSpec bench_spec(double scale) {
  core::CampaignSpec spec;
  spec.name = "bench-sweep";

  core::ScenarioSpec purley;
  purley.name = "purley";
  purley.params = sim::purley_scenario(/*seed=*/21).scaled(0.12 * scale);
  spec.scenarios.push_back(purley);
  core::ScenarioSpec whitley;
  whitley.name = "whitley";
  whitley.params = sim::whitley_scenario(/*seed=*/22).scaled(0.12 * scale);
  spec.scenarios.push_back(whitley);

  core::EccSpec platform_ecc;
  platform_ecc.name = "platform";
  spec.eccs.push_back(platform_ecc);
  core::EccSpec secded;
  secded.name = "sec-ded";
  secded.ecc = dram::EccChoice::kSecDed;
  spec.eccs.push_back(secded);

  core::PredictorSpec gbdt;
  gbdt.name = "gbdt";
  spec.predictors.push_back(gbdt);
  core::PredictorSpec gbdt_short;
  gbdt_short.name = "gbdt-short";
  gbdt_short.windows.observation = days(3);
  gbdt_short.windows.prediction = days(15);
  gbdt_short.train_seed = 29;
  spec.predictors.push_back(gbdt_short);

  core::PolicySpec tuned;
  tuned.name = "tuned";
  spec.policies.push_back(tuned);
  core::PolicySpec eager;
  eager.name = "eager-0.8";
  eager.tuned_scale = 0.8;
  spec.policies.push_back(eager);
  core::PolicySpec cautious;
  cautious.name = "cautious-1.2";
  cautious.tuned_scale = 1.2;
  spec.policies.push_back(cautious);
  for (const double threshold : {0.3, 0.5, 0.9}) {
    core::PolicySpec fixed;
    fixed.name = "fixed-" + bench::fmt(threshold, 1);
    fixed.mode = core::PolicySpec::Threshold::kFixed;
    fixed.fixed_threshold = threshold;
    fixed.prediction_guided_offlining = threshold < 0.9;
    spec.policies.push_back(fixed);
  }
  return spec;
}

struct Leg {
  core::CampaignResult result;
  double seconds = 0.0;
};

core::CampaignEngine make_engine(const std::string& store_dir) {
  core::CampaignConfig config;
  config.store_dir = store_dir;
  config.num_threads = kThreads;
  return core::CampaignEngine(config);
}

/// The work-sharing path: the whole sweep through one engine.
Leg run_shared(const core::CampaignSpec& spec, const std::string& store_dir) {
  core::CampaignEngine engine = make_engine(store_dir);
  const auto start = std::chrono::steady_clock::now();
  Leg leg;
  leg.result = engine.run(spec);
  leg.seconds = seconds_since(start);
  return leg;
}

/// The naive path: every point in a fresh engine of its own, so no stage is
/// shared, with the point's sweep indices written back before hashing.
Leg run_naive(const core::CampaignSpec& spec, const std::string& store_dir) {
  const auto start = std::chrono::steady_clock::now();
  Leg leg;
  core::CampaignResult& out = leg.result;
  out.stats.points = spec.points();
  const auto add = [](core::StageCounters& to, const core::StageCounters& from) {
    to.hits += from.hits;
    to.misses += from.misses;
  };
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    for (std::size_t e = 0; e < spec.eccs.size(); ++e) {
      for (std::size_t p = 0; p < spec.predictors.size(); ++p) {
        for (std::size_t q = 0; q < spec.policies.size(); ++q) {
          core::CampaignSpec one = spec;
          one.scenarios = {spec.scenarios[s]};
          one.eccs = {spec.eccs[e]};
          one.predictors = {spec.predictors[p]};
          one.policies = {spec.policies[q]};
          core::CampaignEngine engine = make_engine(store_dir);
          const core::CampaignResult run = engine.run(one);
          core::CampaignPointResult point = run.points.front();
          point.scenario = s;
          point.ecc = e;
          point.predictor = p;
          point.policy = q;
          out.campaign_hash =
              sim::fnv1a_u64(out.campaign_hash, point.result_hash());
          out.points.push_back(std::move(point));
          add(out.stats.simulate, run.stats.simulate);
          add(out.stats.extract, run.stats.extract);
          add(out.stats.train, run.stats.train);
          add(out.stats.score, run.stats.score);
          out.stats.policy_sweeps += run.stats.policy_sweeps;
        }
      }
    }
  }
  leg.seconds = seconds_since(start);
  return leg;
}

void emit_stage_executions(bench::JsonEmitter& json, const char* key,
                           const Leg& leg) {
  const core::CampaignRunStats& stats = leg.result.stats;
  json.begin_object(key);
  json.field("seconds", leg.seconds);
  json.field("simulate_runs", stats.simulate.misses);
  json.field("extract_runs", stats.extract.misses);
  json.field("train_runs", stats.train.misses);
  json.field("score_runs", stats.score.misses);
  json.field("policy_sweeps", stats.policy_sweeps);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : nullptr;
  const double scale = bench::bench_scale();
  const core::CampaignSpec spec = bench_spec(scale);

  const auto store_root =
      std::filesystem::temp_directory_path() / "memfp_campaign_bench";
  std::filesystem::remove_all(store_root);
  std::filesystem::create_directories(store_root);

  // Naive first (the expensive leg), shared second; each leg gets its own
  // store so the naive engine's re-simulations never collide with the
  // shared engine's cached shard directories.
  const Leg naive = run_naive(spec, (store_root / "naive").string());
  const Leg shared = run_shared(spec, (store_root / "shared").string());
  std::filesystem::remove_all(store_root);

  MEMFP_CHECK(shared.result.campaign_hash == naive.result.campaign_hash)
      << "work-sharing changed the campaign result";
  const double speedup = naive.seconds / shared.seconds;

  TextTable table("Campaign sweep: shared stage cache vs naive pipeline (" +
                  std::to_string(spec.points()) + " points, " +
                  std::to_string(kThreads) + " threads)");
  table.set_header({"path", "sec", "simulate", "extract", "train", "score",
                    "sweeps", "speedup"});
  const auto row = [&](const char* name, const Leg& leg, double factor) {
    const core::CampaignRunStats& stats = leg.result.stats;
    table.add_row({name, bench::fmt(leg.seconds),
                   std::to_string(stats.simulate.misses),
                   std::to_string(stats.extract.misses),
                   std::to_string(stats.train.misses),
                   std::to_string(stats.score.misses),
                   std::to_string(stats.policy_sweeps),
                   factor > 0.0 ? bench::fmt(factor) + "x" : "-"});
  };
  row("naive", naive, 0.0);
  row("shared", shared, speedup);
  std::printf("%s", table.render().c_str());

  // Root-cause attribution of the headline point (first scenario/ECC/
  // predictor, tuned policy): which fault classes the predictor+policy
  // misses, not just how many DIMMs.
  const core::CampaignPointResult& headline = shared.result.points.front();
  TextTable attribution("Attribution by fault class (" + headline.name + ")");
  attribution.set_header(
      {"fault class", "DIMMs", "TP", "FN", "FP", "TN", "FN rate", "FP rate"});
  for (const core::FaultClassAttribution& entry : headline.attribution) {
    if (entry.dimms == 0) continue;
    attribution.add_row({core::fault_class_name(entry.fault_class),
                         std::to_string(entry.dimms),
                         std::to_string(entry.true_positives),
                         std::to_string(entry.false_negatives),
                         std::to_string(entry.false_positives),
                         std::to_string(entry.true_negatives),
                         bench::fmt(entry.fn_rate), bench::fmt(entry.fp_rate)});
  }
  std::printf("%s", attribution.render().c_str());

  if (out_path != nullptr) {
    std::FILE* out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_campaign: cannot write %s\n", out_path);
      return 1;
    }
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof hash_hex, "0x%016llx",
                  static_cast<unsigned long long>(shared.result.campaign_hash));
    bench::JsonEmitter json;
    json.begin_object();
    bench::emit_context(json);
    json.field("threads", kThreads);
    json.field("num_points", spec.points());
    json.begin_object("axes");
    json.field("scenarios", spec.scenarios.size());
    json.field("eccs", spec.eccs.size());
    json.field("predictors", spec.predictors.size());
    json.field("policies", spec.policies.size());
    json.end_object();
    emit_stage_executions(json, "naive", naive);
    emit_stage_executions(json, "shared", shared);
    json.field("speedup", speedup);
    json.field("hash_match", true);
    json.field("campaign_hash", hash_hex);
    json.begin_array("points");
    for (const core::CampaignPointResult& point : shared.result.points) {
      json.begin_object();
      json.field("name", point.name);
      json.field("threshold", point.threshold, 4);
      json.field("tp", point.confusion.tp);
      json.field("fp", point.confusion.fp);
      json.field("fn", point.confusion.fn);
      json.field("tn", point.confusion.tn);
      json.field("precision", point.precision, 4);
      json.field("recall", point.recall, 4);
      json.field("f1", point.f1, 4);
      json.field("realized_virr", point.mitigation.realized_virr, 4);
      json.field("prevention_rate", point.offline.prevention_rate, 4);
      json.end_object();
    }
    json.end_array();
    json.begin_array("attribution");
    for (const core::FaultClassAttribution& entry : headline.attribution) {
      json.begin_object();
      json.field("fault_class", core::fault_class_name(entry.fault_class));
      json.field("dimms", entry.dimms);
      json.field("tp", entry.true_positives);
      json.field("fn", entry.false_negatives);
      json.field("fp", entry.false_positives);
      json.field("tn", entry.true_negatives);
      json.field("fn_rate", entry.fn_rate, 4);
      json.field("fp_rate", entry.fp_rate, 4);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::fputs(json.str().c_str(), out);
    std::fclose(out);
  }
  return 0;
}
