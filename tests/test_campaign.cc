// Campaign engine contracts (src/core/campaign.h):
//  - a shared (work-sharing) sweep is byte-identical to the naive one that
//    runs every point in a fresh engine, at any thread count (suite name
//    carries "Determinism" for the TSan leg of tools/check.sh);
//  - the content-addressed stage cache shares exactly the artifacts whose
//    key axes agree, and perturbing one sweep axis re-executes only the
//    stages downstream of it (hit/miss counters per stage);
//  - the vectorized multi-threshold sweep equals the scalar per-threshold
//    replay, including the score-==-threshold tie, which must also agree
//    with the serving-layer latch feeding AlarmSystem.
#include "core/campaign.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/stage_cache.h"
#include "ml/model.h"
#include "mlops/feature_store.h"
#include "mlops/monitoring.h"
#include "mlops/serving.h"
#include "sim/scenario.h"

namespace memfp::core {
namespace {

std::string temp_store(const std::string& leaf) {
  const auto dir = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Small sweep: 1 scenario x 2 ECC x 1 predictor x 3 policies = 6 points,
/// sized so the naive oracle stays fast while every axis is non-trivial.
CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.name = "test-sweep";

  ScenarioSpec scenario;
  scenario.name = "purley";
  scenario.params = sim::purley_scenario(/*seed=*/7).scaled(0.05);
  spec.scenarios.push_back(scenario);

  EccSpec platform_ecc;
  platform_ecc.name = "platform";
  spec.eccs.push_back(platform_ecc);
  EccSpec secded;
  secded.name = "sec-ded";
  secded.ecc = dram::EccChoice::kSecDed;
  spec.eccs.push_back(secded);

  PredictorSpec predictor;
  predictor.name = "gbdt";
  predictor.algorithm = Algorithm::kLightGbm;
  spec.predictors.push_back(predictor);

  PolicySpec tuned;
  tuned.name = "tuned";
  spec.policies.push_back(tuned);
  PolicySpec eager;
  eager.name = "eager";
  eager.tuned_scale = 0.8;
  spec.policies.push_back(eager);
  PolicySpec fixed;
  fixed.name = "fixed-0.9";
  fixed.mode = PolicySpec::Threshold::kFixed;
  fixed.fixed_threshold = 0.9;
  fixed.prediction_guided_offlining = false;
  spec.policies.push_back(fixed);

  return spec;
}

/// 1x1x1x1 spec for the axis-perturbation tests.
CampaignSpec point_spec() {
  CampaignSpec spec = small_spec();
  spec.scenarios.resize(1);
  spec.eccs.resize(1);
  spec.predictors.resize(1);
  spec.policies.resize(1);
  return spec;
}

/// Naive oracle: every point of `spec` in a fresh engine of its own, so no
/// stage is shared, with the point's sweep indices written back and the
/// per-engine stage counters summed.
CampaignResult run_naive(const CampaignSpec& spec,
                            const std::string& store) {
  CampaignResult out;
  out.stats.points = spec.points();
  const auto add = [](StageCounters& to, const StageCounters& from) {
    to.hits += from.hits;
    to.misses += from.misses;
  };
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    for (std::size_t e = 0; e < spec.eccs.size(); ++e) {
      for (std::size_t p = 0; p < spec.predictors.size(); ++p) {
        for (std::size_t q = 0; q < spec.policies.size(); ++q) {
          CampaignSpec one = spec;
          one.scenarios = {spec.scenarios[s]};
          one.eccs = {spec.eccs[e]};
          one.predictors = {spec.predictors[p]};
          one.policies = {spec.policies[q]};
          CampaignConfig config;
          config.store_dir = store;
          CampaignEngine engine(config);
          const CampaignResult run = engine.run(one);
          CampaignPointResult point = run.points.front();
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
  return out;
}

// ---------------------------------------------------------------------------
// Stage cache / key unit tests
// ---------------------------------------------------------------------------

TEST(StageKey, FieldOrderAndLengthPrefixMatter) {
  const auto key = [](auto&&... mixes) {
    StageKey k;
    (k.mix_string(mixes), ...);
    return k.value();
  };
  // Length prefixing keeps adjacent strings from colliding by concatenation.
  EXPECT_NE(key("ab", "c"), key("a", "bc"));
  EXPECT_EQ(key("ab", "c"), key("ab", "c"));
}

TEST(StageKey, SignedZeroCanonicalized) {
  // -0.0 == +0.0 as a config value, so the keys must agree too.
  EXPECT_EQ(StageKey().mix_double(0.0).value(),
            StageKey().mix_double(-0.0).value());
  EXPECT_NE(StageKey().mix_double(0.0).value(),
            StageKey().mix_double(1.0).value());
}

TEST(StageCacheCounters, HitAndMissPerStage) {
  StageCache cache;
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    return std::make_shared<const int>(42);
  };
  const auto first = cache.get_or_compute<int>(Stage::kTrain, 1, compute);
  const auto again = cache.get_or_compute<int>(Stage::kTrain, 1, compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(first.get(), again.get());
  // Same key under a different stage is a distinct entry.
  cache.get_or_compute<int>(Stage::kScore, 1, compute);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(cache.counters(Stage::kTrain).hits, 1u);
  EXPECT_EQ(cache.counters(Stage::kTrain).misses, 1u);
  EXPECT_EQ(cache.counters(Stage::kScore).misses, 1u);
  EXPECT_EQ(cache.total_hits(), 1u);
  EXPECT_EQ(cache.total_misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.total_misses(), 0u);
}

// ---------------------------------------------------------------------------
// Vectorized threshold sweep
// ---------------------------------------------------------------------------

TEST(CampaignSweep, VectorizedMatchesScalarReplay) {
  ScoreStreamSet set;
  // Four streams, one empty, with ties and repeated scores.
  set.times = {10, 20, 30, 40, 50, 60, 70, 80};
  set.scores = {0.1, 0.5, 0.9, 0.5, 0.2, 0.9, 0.9, 0.05};
  set.offsets = {0, 3, 5, 5, 8};
  ASSERT_EQ(set.streams(), 4u);

  // Unsorted, with a duplicate, exact tie values, and a never-crossed top.
  const std::vector<double> thresholds = {0.5, 0.9, 0.5, 0.2, 1.5, 0.0};
  const std::vector<std::optional<SimTime>> vectorized =
      set.first_alarms(thresholds);
  ASSERT_EQ(vectorized.size(), thresholds.size() * set.streams());
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    for (std::size_t s = 0; s < set.streams(); ++s) {
      SCOPED_TRACE(testing::Message() << "threshold " << thresholds[t]
                                      << " stream " << s);
      // Scalar replay: the stream's first score at or above the threshold.
      std::optional<SimTime> scalar;
      for (std::size_t r = set.offsets[s]; r < set.offsets[s + 1]; ++r) {
        if (set.scores[r] >= thresholds[t]) {
          scalar = set.times[r];
          break;
        }
      }
      EXPECT_EQ(vectorized[t * set.streams() + s], scalar);
    }
  }
}

TEST(CampaignSweep, ScoreAtThresholdAlarmsEverywhere) {
  // The tie rule (score >= threshold alarms) must agree across the
  // vectorized sweep and the serving-layer latch that feeds AlarmSystem.
  // 0.1 + 0.2 != 0.3 in doubles, so use an exactly representable value to
  // make the tie genuine.
  const double threshold = 0.5;

  ScoreStreamSet set;
  set.times = {100};
  set.scores = {threshold};
  set.offsets = {0, 1};
  const std::vector<double> thresholds = {
      threshold, std::nextafter(threshold, 1.0)};
  const auto alarms = set.first_alarms(thresholds);
  EXPECT_EQ(alarms[0], std::optional<SimTime>(100));
  EXPECT_EQ(alarms[1], std::nullopt);

  // Serving latch: a model scoring exactly the threshold must raise.
  class ConstantModel final : public ml::BinaryClassifier {
   public:
    explicit ConstantModel(double value) : value_(value) {}
    void fit(const ml::Dataset&, Rng&) override {}
    double predict(std::span<const float>) const override { return value_; }
    std::string name() const override { return "constant"; }
    Json to_json() const override { return Json::object(); }

   private:
    double value_;
  };
  const mlops::FeatureStore store;
  const std::vector<float> row(store.schema().size(), 1.0f);

  const ConstantModel at(threshold);
  mlops::AlarmSystem raised;
  mlops::Monitoring monitoring;
  mlops::ServingEngine engine(at, threshold, store, raised, monitoring);
  ASSERT_EQ(engine.score_row(7, 100, row), std::optional<double>(threshold));
  EXPECT_EQ(raised.first_alarm(7), std::optional<SimTime>(100));

  const ConstantModel below(std::nextafter(threshold, 0.0));
  mlops::AlarmSystem quiet;
  mlops::ServingEngine below_engine(below, threshold, store, quiet,
                                    monitoring);
  ASSERT_TRUE(below_engine.score_row(7, 100, row).has_value());
  EXPECT_EQ(quiet.first_alarm(7), std::nullopt);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: shared == naive, any thread count
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, SharedMatchesNaiveAcrossThreads) {
  const CampaignSpec spec = small_spec();
  const std::string store = temp_store("memfp_campaign_matrix");

  std::optional<CampaignResult> reference;
  for (const int threads : {1, 2, 4}) {
    CampaignConfig config;
    config.store_dir = store;
    config.num_threads = threads;
    CampaignEngine engine(config);
    const CampaignResult run = engine.run(spec);
    SCOPED_TRACE(testing::Message() << "shared, " << threads << " threads");
    ASSERT_EQ(run.points.size(), spec.points());
    if (!reference) {
      reference = run;
      continue;
    }
    EXPECT_EQ(run.campaign_hash, reference->campaign_hash);
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      EXPECT_EQ(run.points[i].result_hash(),
                reference->points[i].result_hash());
    }
  }

  // The naive oracle recomputes every stage for every point — byte-identical
  // results, none of the sharing.
  const CampaignResult naive_run = run_naive(spec, store);
  EXPECT_EQ(naive_run.campaign_hash, reference->campaign_hash);
  for (std::size_t i = 0; i < naive_run.points.size(); ++i) {
    EXPECT_EQ(naive_run.points[i].result_hash(),
              reference->points[i].result_hash());
  }

  // Work accounting. Shared: one pipeline per distinct (scenario, ECC,
  // predictor) triple, one vectorized sweep each. Naive: one per point.
  const std::size_t triples =
      spec.scenarios.size() * spec.eccs.size() * spec.predictors.size();
  const CampaignRunStats& shared = reference->stats;
  EXPECT_EQ(shared.simulate.misses, triples);  // ECC rides the sim key
  EXPECT_EQ(shared.extract.misses, triples);
  EXPECT_EQ(shared.train.misses, triples);
  EXPECT_EQ(shared.score.misses, triples);
  EXPECT_EQ(shared.policy_sweeps, triples);
  EXPECT_EQ(naive_run.stats.simulate.misses, spec.points());
  EXPECT_EQ(naive_run.stats.score.misses, spec.points());
  EXPECT_EQ(naive_run.stats.simulate.hits, 0u);
  EXPECT_EQ(naive_run.stats.policy_sweeps, spec.points());

  std::filesystem::remove_all(store);
}

// Golden pin: small_spec()'s folded campaign hash, captured before the
// evaluation protocol moved into core/protocol. Never re-pin it to make a
// refactor pass.
constexpr std::uint64_t kGoldenSmallSpecHash = 9200533930208911755ULL;

TEST(CampaignDeterminism, SmallSpecHashPinned) {
  const CampaignSpec spec = small_spec();
  const std::string store = temp_store("memfp_campaign_golden");
  for (const int threads : {1, 4}) {
    CampaignConfig config;
    config.store_dir = store;
    config.num_threads = threads;
    CampaignEngine engine(config);
    EXPECT_EQ(engine.run(spec).campaign_hash, kGoldenSmallSpecHash)
        << threads << " threads";
  }
  std::filesystem::remove_all(store);
}

TEST(CampaignDeterminism, RerunOnWarmEngineHitsAndMatches) {
  const CampaignSpec spec = point_spec();
  const std::string store = temp_store("memfp_campaign_rerun");
  CampaignConfig config;
  config.store_dir = store;
  CampaignEngine engine(config);

  const CampaignResult cold = engine.run(spec);
  const CampaignResult warm = engine.run(spec);
  EXPECT_EQ(warm.campaign_hash, cold.campaign_hash);
  // A warm run resolves at the score stage: upstream stages are never even
  // consulted, so the only counter movement is one score hit.
  EXPECT_EQ(warm.stats.score.hits, 1u);
  EXPECT_EQ(warm.stats.score.misses, 0u);
  EXPECT_EQ(warm.stats.train.hits + warm.stats.train.misses, 0u);
  EXPECT_EQ(warm.stats.simulate.hits + warm.stats.simulate.misses, 0u);
  std::filesystem::remove_all(store);
}

// ---------------------------------------------------------------------------
// Axis perturbation: only downstream stages re-execute
// ---------------------------------------------------------------------------

TEST(CampaignCache, PerturbingOneAxisReexecutesOnlyDownstream) {
  const CampaignSpec base = point_spec();
  const std::string store = temp_store("memfp_campaign_perturb");
  CampaignConfig config;
  config.store_dir = store;
  CampaignEngine engine(config);
  engine.run(base);

  // Policy axis: pure consumer of the cached score artifact.
  {
    CampaignSpec spec = base;
    spec.policies[0].mode = PolicySpec::Threshold::kFixed;
    spec.policies[0].fixed_threshold = 0.25;
    const CampaignRunStats stats = engine.run(spec).stats;
    EXPECT_EQ(stats.score.hits, 1u);
    EXPECT_EQ(stats.score.misses, 0u);
    EXPECT_EQ(stats.train.misses + stats.extract.misses +
                  stats.simulate.misses,
              0u);
  }
  // Train seed: invalidates train + score, extraction is shared.
  {
    CampaignSpec spec = base;
    spec.predictors[0].train_seed = 99;
    const CampaignRunStats stats = engine.run(spec).stats;
    EXPECT_EQ(stats.score.misses, 1u);
    EXPECT_EQ(stats.train.misses, 1u);
    EXPECT_EQ(stats.extract.hits, 1u);
    EXPECT_EQ(stats.extract.misses, 0u);
    EXPECT_EQ(stats.simulate.hits + stats.simulate.misses, 0u);
  }
  // Window config: invalidates extraction and below, the fleet is shared.
  {
    CampaignSpec spec = base;
    spec.predictors[0].windows.observation = days(21);
    const CampaignRunStats stats = engine.run(spec).stats;
    EXPECT_EQ(stats.extract.misses, 1u);
    EXPECT_EQ(stats.train.misses, 1u);
    EXPECT_EQ(stats.score.misses, 1u);
    EXPECT_EQ(stats.simulate.hits, 1u);
    EXPECT_EQ(stats.simulate.misses, 0u);
  }
  // ECC scheme rides the simulate key: everything re-executes.
  {
    CampaignSpec spec = base;
    spec.eccs[0].ecc = dram::EccChoice::kSecDed;
    const CampaignRunStats stats = engine.run(spec).stats;
    EXPECT_EQ(stats.simulate.misses, 1u);
    EXPECT_EQ(stats.extract.misses, 1u);
    EXPECT_EQ(stats.train.misses, 1u);
    EXPECT_EQ(stats.score.misses, 1u);
  }
  // So does the scenario seed.
  {
    CampaignSpec spec = base;
    spec.scenarios[0].params.seed = 1234;
    const CampaignRunStats stats = engine.run(spec).stats;
    EXPECT_EQ(stats.simulate.misses, 1u);
    EXPECT_EQ(stats.score.misses, 1u);
  }
  std::filesystem::remove_all(store);
}

TEST(CampaignCache, StageKeysExposeSharingStructure) {
  const CampaignSpec base = point_spec();
  CampaignConfig config;
  config.store_dir = temp_store("memfp_campaign_keys");
  CampaignEngine engine(config);
  const ScenarioSpec& sc = base.scenarios[0];
  const EccSpec& ecc = base.eccs[0];
  const PredictorSpec& pred = base.predictors[0];
  const SamplingParams& sampling = base.sampling;

  // Algorithm and train seed are invisible to simulate/extract keys.
  PredictorSpec other_algo = pred;
  other_algo.algorithm = Algorithm::kRandomForest;
  other_algo.train_seed = 5;
  EXPECT_EQ(engine.extract_key(sc, ecc, pred, sampling),
            engine.extract_key(sc, ecc, other_algo, sampling));
  EXPECT_NE(engine.train_key(sc, ecc, pred, sampling),
            engine.train_key(sc, ecc, other_algo, sampling));

  // Windows are invisible to the simulate key only.
  PredictorSpec other_windows = pred;
  other_windows.windows.lead = hours(6);
  EXPECT_EQ(engine.simulate_key(sc, ecc), engine.simulate_key(sc, ecc));
  EXPECT_NE(engine.extract_key(sc, ecc, pred, sampling),
            engine.extract_key(sc, ecc, other_windows, sampling));

  // BMC policy rides the ECC axis into the simulate key.
  EccSpec other_bmc = ecc;
  other_bmc.bmc.storm_threshold += 1;
  EXPECT_NE(engine.simulate_key(sc, ecc), engine.simulate_key(sc, other_bmc));

  // Sampling perturbs extract but not simulate.
  SamplingParams other_sampling = sampling;
  other_sampling.seed = 77;
  EXPECT_NE(engine.extract_key(sc, ecc, pred, sampling),
            engine.extract_key(sc, ecc, pred, other_sampling));
  std::filesystem::remove_all(config.store_dir);
}

// ---------------------------------------------------------------------------
// Result-shape invariants
// ---------------------------------------------------------------------------

TEST(CampaignResultShape, AttributionAndAccountingConsistent) {
  const CampaignSpec spec = small_spec();
  CampaignConfig config;
  config.store_dir = temp_store("memfp_campaign_shape");
  CampaignEngine engine(config);
  const CampaignResult result = engine.run(spec);
  ASSERT_EQ(result.points.size(), spec.points());

  std::size_t index = 0;
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    for (std::size_t e = 0; e < spec.eccs.size(); ++e) {
      for (std::size_t p = 0; p < spec.predictors.size(); ++p) {
        for (std::size_t q = 0; q < spec.policies.size(); ++q, ++index) {
          const CampaignPointResult& point = result.points[index];
          SCOPED_TRACE(point.name);
          EXPECT_EQ(point.scenario, s);
          EXPECT_EQ(point.policy, q);
          EXPECT_EQ(point.name, spec.scenarios[s].name + "/" +
                                    spec.eccs[e].name + "/" +
                                    spec.predictors[p].name + "/" +
                                    spec.policies[q].name);

          // The attribution table partitions the evaluated DIMMs: summed
          // per-class counts reproduce the point's confusion exactly.
          ASSERT_EQ(point.attribution.size(), kFaultClassCount);
          ml::Confusion summed;
          std::size_t dimms = 0;
          for (const FaultClassAttribution& row : point.attribution) {
            dimms += row.dimms;
            summed.tp += row.true_positives;
            summed.fp += row.false_positives;
            summed.fn += row.false_negatives;
            summed.tn += row.true_negatives;
          }
          EXPECT_EQ(summed.tp, point.confusion.tp);
          EXPECT_EQ(summed.fp, point.confusion.fp);
          EXPECT_EQ(summed.fn, point.confusion.fn);
          EXPECT_EQ(summed.tn, point.confusion.tn);
          EXPECT_GT(dimms, 0u);

          // Mitigation accounting is the pure function of the confusion.
          const mlops::MitigationReport expect = mlops::account_confusion(
              point.confusion.tp, point.confusion.fp, point.confusion.fn,
              spec.policies[q].mitigation);
          EXPECT_EQ(point.mitigation.realized_virr, expect.realized_virr);
          EXPECT_EQ(point.mitigation.interruptions_with_prediction,
                    expect.interruptions_with_prediction);

          // Sudden UEs are evaluated (policy-level protocol): their class
          // never produces a true positive, only misses.
          const FaultClassAttribution& sudden =
              point.attribution[static_cast<std::size_t>(FaultClass::kSudden)];
          EXPECT_EQ(sudden.true_positives, 0u);
          if (sudden.dimms > 0) {
            EXPECT_EQ(sudden.fn_rate, 1.0);
          }
        }
      }
    }
  }
  std::filesystem::remove_all(config.store_dir);
}

TEST(CampaignResultShape, StoreCleanupFollowsKeepFlag) {
  const CampaignSpec spec = point_spec();
  const std::string store = temp_store("memfp_campaign_cleanup");
  {
    CampaignConfig config;
    config.store_dir = store;
    CampaignEngine engine(config);
    engine.run(spec);
    EXPECT_FALSE(std::filesystem::is_empty(store));  // spilled shards live
  }
  // Engine destruction removes the spill dirs it created.
  EXPECT_TRUE(std::filesystem::is_empty(store));
  {
    CampaignConfig config;
    config.store_dir = store;
    config.keep_store = true;
    CampaignEngine engine(config);
    engine.run(spec);
  }
  EXPECT_FALSE(std::filesystem::is_empty(store));
  std::filesystem::remove_all(store);
}

}  // namespace
}  // namespace memfp::core
