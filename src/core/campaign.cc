#include "core/campaign.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/fleet_driver.h"
#include "dram/geometry.h"
#include "features/extractor.h"
#include "ml/dataset.h"
#include "sim/fleet.h"

namespace memfp::core {
namespace {

/// Simulate-shard size in planned DIMMs: big enough to amortize shard
/// framing, small enough that one shard's resident traces stay bounded.
constexpr std::size_t kShardDimms = 4096;

/// Format-version salts, one per stage. Bump a salt when its stage's
/// artifact layout or semantics change — old keys then simply miss.
constexpr std::uint64_t kSimulateSalt = 0x51f01;
constexpr std::uint64_t kExtractSalt = 0x51f02;
constexpr std::uint64_t kTrainSalt = 0x51f03;

void mix_windows(StageKey& key, const features::PredictionWindows& windows) {
  key.mix_signed(windows.observation)
      .mix_signed(windows.lead)
      .mix_signed(windows.prediction)
      .mix_signed(windows.cadence);
}

void mix_fault_mix(StageKey& key, const std::vector<sim::FaultMixEntry>& mix) {
  key.mix(mix.size());
  for (const sim::FaultMixEntry& entry : mix) {
    key.mix(static_cast<std::uint64_t>(entry.mode))
        .mix(static_cast<std::uint64_t>(entry.scope))
        .mix_double(entry.weight);
  }
}

double resolve_threshold(const PolicySpec& policy, double tuned) {
  return policy.mode == PolicySpec::Threshold::kFixed
             ? policy.fixed_threshold
             : tuned * policy.tuned_scale;
}

/// The campaign's ground-truth rule (see CampaignPointResult).
constexpr GroundTruth kPolicyLevel = GroundTruth::kAnyUe;

StageCounters counter_delta(const StageCounters& before,
                            const StageCounters& after) {
  return {after.hits - before.hits, after.misses - before.misses};
}

}  // namespace

// ---------------------------------------------------------------------------
// Result hashing
// ---------------------------------------------------------------------------

std::uint64_t CampaignPointResult::result_hash() const {
  StageKey key;
  key.mix(scenario).mix(ecc).mix(predictor).mix(policy);
  key.mix_string(name);
  key.mix_double(threshold);
  key.mix(confusion.tp).mix(confusion.fp).mix(confusion.fn).mix(confusion.tn);
  key.mix_double(precision).mix_double(recall).mix_double(f1);
  key.mix(mitigation.true_positives)
      .mix(mitigation.false_positives)
      .mix(mitigation.false_negatives);
  key.mix_double(mitigation.interruptions_without_prediction)
      .mix_double(mitigation.interruptions_with_prediction)
      .mix_double(mitigation.realized_virr);
  key.mix(offline.dimms)
      .mix(offline.rows_offlined)
      .mix(offline.ces_avoided)
      .mix(offline.ues_total)
      .mix(offline.ues_avoided);
  key.mix_double(offline.prevention_rate);
  key.mix(attribution.size());
  for (const FaultClassAttribution& row : attribution) {
    key.mix(static_cast<std::uint64_t>(row.fault_class))
        .mix(row.dimms)
        .mix(row.true_positives)
        .mix(row.false_negatives)
        .mix(row.false_positives)
        .mix(row.true_negatives);
    key.mix_double(row.fn_rate).mix_double(row.fp_rate);
  }
  return key.value();
}

// ---------------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------------

struct CampaignEngine::FleetArtifact {
  std::string dir;
  std::vector<std::string> shard_files;
  /// First observed-DIMM index of each shard (ascending); the decode-back
  /// lookup for the page-offline replay.
  std::vector<std::size_t> shard_begin;

  /// Observed DIMMs in id order, and each one's dominant fault class.
  std::vector<DimmFacts> dimms;
  std::vector<FaultClass> fault_class;

  dram::Platform platform = dram::Platform::kIntelPurley;
  SimTime horizon = 0;
  sim::ShardStats totals;
  std::uint64_t trace_hash = sim::kFnvOffset;
};

struct CampaignEngine::FeatureArtifact {
  std::shared_ptr<const FleetArtifact> fleet;

  /// Downsampled + class-rebalanced training rows.
  ml::Dataset train;

  /// Validation and test folds; stream i belongs to fleet->dimms[dimm[i]].
  EvalPartition val;
  EvalPartition test;

  std::uint64_t feature_hash = sim::kFnvOffset;
};

struct CampaignEngine::ModelArtifact {
  std::shared_ptr<const FeatureArtifact> features;
  std::shared_ptr<const ml::BinaryClassifier> model;
  /// Fitted-model JSON (the registry-shaped artifact); model_hash is the
  /// FNV-1a of these bytes.
  std::string json;
  std::uint64_t model_hash = sim::kFnvOffset;
};

struct CampaignEngine::ScoreArtifact {
  std::shared_ptr<const ModelArtifact> model;
  /// Scored model->features->val / ->test, stream for stream.
  ScoreStreamSet val;
  ScoreStreamSet test;
  double tuned_threshold = 0.5;
  std::uint64_t score_hash = sim::kFnvOffset;
};

// ---------------------------------------------------------------------------
// Stage keys
// ---------------------------------------------------------------------------

std::uint64_t CampaignEngine::simulate_key(const ScenarioSpec& scenario,
                                           const EccSpec& ecc) const {
  StageKey key;
  key.mix(kSimulateSalt);
  const sim::ScenarioParams& p = scenario.params;
  key.mix(static_cast<std::uint64_t>(p.platform));
  key.mix_signed(p.horizon).mix(p.seed);
  key.mix_signed(p.ce_dimms)
      .mix_signed(p.predictable_ue_dimms)
      .mix_signed(p.sudden_ue_dimms)
      .mix_signed(p.servers);
  key.mix_double(p.censored_escalator_fraction)
      .mix_double(p.short_prelude_fraction)
      .mix_double(p.lookalike_fraction)
      .mix_double(p.two_fault_probability);
  mix_fault_mix(key, p.benign_mix);
  mix_fault_mix(key, p.escalator_mix);
  key.mix(static_cast<std::uint64_t>(ecc.ecc));
  key.mix_signed(ecc.bmc.storm_threshold)
      .mix_signed(ecc.bmc.storm_window)
      .mix_signed(ecc.bmc.suppression_period)
      .mix(ecc.bmc.max_logged_ces);
  return key.value();
}

std::uint64_t CampaignEngine::extract_key(
    const ScenarioSpec& scenario, const EccSpec& ecc,
    const PredictorSpec& predictor, const SamplingParams& sampling) const {
  StageKey key;
  key.mix(kExtractSalt);
  key.mix(simulate_key(scenario, ecc));
  mix_windows(key, predictor.windows);
  key.mix_signed(predictor.eval_cadence);
  key.mix_double(sampling.test_fraction)
      .mix_double(sampling.validation_fraction);
  key.mix(sampling.max_negatives_per_dimm)
      .mix(sampling.max_positives_per_dimm);
  key.mix_double(sampling.positive_weight_share);
  key.mix(sampling.seed);
  return key.value();
}

std::uint64_t CampaignEngine::train_key(const ScenarioSpec& scenario,
                                        const EccSpec& ecc,
                                        const PredictorSpec& predictor,
                                        const SamplingParams& sampling)
    const {
  StageKey key;
  key.mix(kTrainSalt);
  key.mix(extract_key(scenario, ecc, predictor, sampling));
  key.mix(static_cast<std::uint64_t>(predictor.algorithm));
  key.mix(predictor.train_seed);
  return key.value();
}

// ---------------------------------------------------------------------------
// Stage executors
// ---------------------------------------------------------------------------

std::shared_ptr<const CampaignEngine::FleetArtifact>
CampaignEngine::run_simulate(const ScenarioSpec& scenario, const EccSpec& ecc) {
  const std::uint64_t key = simulate_key(scenario, ecc);
  return cache_.get_or_compute<FleetArtifact>(Stage::kSimulate, key, [&] {
    auto artifact = std::make_shared<FleetArtifact>();
    const sim::ScenarioParams& params = scenario.params;
    artifact->platform = params.platform;
    artifact->horizon = params.horizon;

    char dirname[32];
    std::snprintf(dirname, sizeof(dirname), "sim-%016llx",
                  static_cast<unsigned long long>(key));
    const std::string dir =
        (std::filesystem::path(config_.store_dir) / dirname).string();
    std::filesystem::create_directories(dir);
    if (std::find(owned_dirs_.begin(), owned_dirs_.end(), dir) ==
        owned_dirs_.end()) {
      owned_dirs_.push_back(dir);
    }
    artifact->dir = dir;

    sim::DimmSimParams sim_params;
    sim_params.horizon = params.horizon;
    sim_params.ecc = ecc.ecc;
    sim_params.bmc = ecc.bmc;
    const sim::DimmSimulator simulator(params.platform, sim_params);
    const dram::Geometry geometry = dram::Geometry::ddr4_x4();

    sim::FleetPlanner planner(params);
    const std::size_t total = planner.plan().total();
    const std::size_t shards =
        std::max<std::size_t>(1, (total + kShardDimms - 1) / kShardDimms);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * total / shards;
      const std::size_t end = (s + 1) * total / shards;
      const std::vector<sim::PlannedDimm> jobs = planner.take(end - begin);
      if (jobs.empty()) continue;

      const std::string path =
          sim::shard_path(dir, artifact->shard_files.size());
      const SimulatedShard shard = simulate_shard(
          jobs, params, simulator, geometry, path, artifact->trace_hash);
      artifact->trace_hash = shard.trace_hash;
      std::vector<FaultClass> classes(shard.observed.size());
      ThreadPool::global().parallel_for(
          shard.observed.size(),
          [&](std::size_t i) {
            classes[i] = dominant_fault_class(shard.observed[i]);
          },
          /*grain=*/1);
      artifact->shard_begin.push_back(artifact->dimms.size());
      for (std::size_t i = 0; i < shard.observed.size(); ++i) {
        artifact->dimms.push_back(DimmFacts::of(shard.observed[i]));
        artifact->fault_class.push_back(classes[i]);
      }
      artifact->totals.add(shard.stats);
      artifact->shard_files.push_back(path);
    }
    MEMFP_CHECK_EQ(planner.produced(), total);
    MEMFP_INFO << "campaign simulate[" << scenario.name << "/" << ecc.name
               << "]: " << artifact->dimms.size() << " observed of " << total
               << " planned, " << artifact->totals.raw_records()
               << " records";
    return artifact;
  });
}

std::shared_ptr<const CampaignEngine::FeatureArtifact>
CampaignEngine::run_extract(const ScenarioSpec& scenario, const EccSpec& ecc,
                            const PredictorSpec& predictor,
                            const SamplingParams& sampling) {
  const std::uint64_t key = extract_key(scenario, ecc, predictor, sampling);
  return cache_.get_or_compute<FeatureArtifact>(Stage::kExtract, key, [&] {
    const std::shared_ptr<const FleetArtifact> fleet =
        run_simulate(scenario, ecc);
    auto artifact = std::make_shared<FeatureArtifact>();
    artifact->fleet = fleet;

    // Train/val/test roles. The split depends on the fleet and the sampling
    // seed only — never on windows — so predictors that differ in window
    // config are still evaluated on the same held-out DIMMs.
    Rng split_rng(sim::fnv1a_u64(simulate_key(scenario, ecc), sampling.seed));
    const std::vector<Role> roles =
        assign_roles(fleet->dimms, sampling, kPolicyLevel, split_rng);

    const features::FeatureExtractor train_extractor(predictor.windows);
    features::PredictionWindows eval_windows = predictor.windows;
    eval_windows.cadence = predictor.eval_cadence;
    const features::FeatureExtractor eval_extractor(eval_windows);

    Rng sample_rng(sim::fnv1a_u64(key, 0x5a3fULL));
    TrainingSetBuilder train_set(train_extractor.schema(), sampling,
                                 sample_rng);

    // Stream each shard back: extract per DIMM in parallel slots, fold in
    // id order. Extraction draws no RNG, so the fan-out cannot disturb
    // sample_rng's draw sequence (the pipeline's determinism argument).
    std::size_t base = 0;
    for (const std::string& path : fleet->shard_files) {
      const sim::TraceReader reader(path);
      const std::size_t count = reader.dimm_count();
      std::vector<std::vector<features::Sample>> slots(count);
      ThreadPool::global().parallel_for(
          count,
          [&](std::size_t i) {
            const features::FeatureExtractor& extractor =
                roles[base + i] == Role::kTrain ? train_extractor
                                                : eval_extractor;
            slots[i] = extractor.extract(reader.read_dimm(i), fleet->horizon);
          },
          /*grain=*/1);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t g = base + i;
        std::vector<features::Sample> samples = std::move(slots[i]);
        slots[i].clear();
        for (const features::Sample& sample : samples) {
          artifact->feature_hash =
              fold_sample_hash(artifact->feature_hash, sample);
        }
        if (roles[g] == Role::kTrain) {
          train_set.add_dimm(std::move(samples));
        } else {  // kPolicyLevel excludes no DIMM
          (roles[g] == Role::kVal ? artifact->val : artifact->test)
              .add(g, samples);
        }
      }
      base += count;
    }
    MEMFP_CHECK_EQ(base, fleet->dimms.size());

    artifact->train = train_set.finish();
    MEMFP_INFO << "campaign extract[" << scenario.name << "/" << ecc.name
               << "/" << predictor.name << "]: " << artifact->train.size()
               << " train rows, " << artifact->val.dimm.size() << " val / "
               << artifact->test.dimm.size() << " test DIMMs";
    return artifact;
  });
}

std::shared_ptr<const CampaignEngine::ModelArtifact> CampaignEngine::run_train(
    const ScenarioSpec& scenario, const EccSpec& ecc,
    const PredictorSpec& predictor, const SamplingParams& sampling) {
  const std::uint64_t key = train_key(scenario, ecc, predictor, sampling);
  return cache_.get_or_compute<ModelArtifact>(Stage::kTrain, key, [&] {
    MEMFP_CHECK(predictor.algorithm != Algorithm::kRiskyCePattern)
        << "campaign: the predictor axis needs a feature model; the "
           "trace-based rule baseline has no train/score stages to share";
    const std::shared_ptr<const FeatureArtifact> features =
        run_extract(scenario, ecc, predictor, sampling);
    auto artifact = std::make_shared<ModelArtifact>();
    artifact->features = features;
    std::unique_ptr<ml::BinaryClassifier> model =
        make_model(predictor.algorithm);
    // The train key already folds every upstream axis, so it doubles as the
    // training-stream seed: identical configs reproduce the identical model
    // on any path.
    Rng rng(sim::fnv1a_u64(key, predictor.train_seed));
    model->fit(features->train, rng);
    artifact->json = model->to_json().dump();
    artifact->model_hash = sim::fnv1a_bytes(
        sim::kFnvOffset, artifact->json.data(), artifact->json.size());
    artifact->model = std::move(model);
    return artifact;
  });
}

std::shared_ptr<const CampaignEngine::ScoreArtifact> CampaignEngine::run_score(
    const ScenarioSpec& scenario, const EccSpec& ecc,
    const PredictorSpec& predictor, const SamplingParams& sampling) {
  const std::uint64_t key = train_key(scenario, ecc, predictor, sampling);
  return cache_.get_or_compute<ScoreArtifact>(Stage::kScore, key, [&] {
    const std::shared_ptr<const ModelArtifact> model =
        run_train(scenario, ecc, predictor, sampling);
    const FeatureArtifact& parts = *model->features;
    auto artifact = std::make_shared<ScoreArtifact>();
    artifact->model = model;

    artifact->val = parts.val.score(*model->model);
    artifact->test = parts.test.score(*model->model);
    for (const ScoreStreamSet* scored : {&artifact->val, &artifact->test}) {
      for (const double score : scored->scores) {
        artifact->score_hash = sim::fnv1a_u64(
            artifact->score_hash, std::bit_cast<std::uint64_t>(score));
      }
    }

    // Tune the F1 threshold on the validation fold, once per score
    // artifact — every policy deriving its threshold from the tuned point
    // reuses this value. Tuning is model level in both protocols: the
    // predictor is tuned for the UEs it can see.
    std::vector<AlarmOutcome> outcomes;
    outcomes.reserve(parts.val.dimm.size());
    for (const std::size_t g : parts.val.dimm) {
      outcomes.push_back(
          ground_truth(parts.fleet->dimms[g], GroundTruth::kPredictableUe));
    }
    artifact->tuned_threshold =
        tune_threshold(artifact->val, outcomes, predictor.windows);
    return artifact;
  });
}

// ---------------------------------------------------------------------------
// Policy evaluation
// ---------------------------------------------------------------------------

std::vector<std::pair<std::size_t, sim::DimmTrace>>
CampaignEngine::load_ue_test_traces(const ScoreArtifact& scored) const {
  const FleetArtifact& fleet = *scored.model->features->fleet;
  const std::vector<std::size_t>& test_dimm = scored.model->features->test.dimm;
  std::vector<std::pair<std::size_t, sim::DimmTrace>> traces;
  std::unique_ptr<sim::TraceReader> reader;
  std::size_t open_shard = fleet.shard_files.size();
  // test_dimm is ascending (streams were appended in id order), so each
  // shard is opened at most once.
  for (std::size_t i = 0; i < test_dimm.size(); ++i) {
    const std::size_t g = test_dimm[i];
    if (!fleet.dimms[g].has_ue) continue;
    const auto it = std::upper_bound(fleet.shard_begin.begin(),
                                     fleet.shard_begin.end(), g);
    const auto shard =
        static_cast<std::size_t>(it - fleet.shard_begin.begin()) - 1;
    if (shard != open_shard) {
      reader = std::make_unique<sim::TraceReader>(fleet.shard_files[shard]);
      open_shard = shard;
    }
    traces.emplace_back(i, reader->read_dimm(g - fleet.shard_begin[shard]));
  }
  return traces;
}

CampaignPointResult CampaignEngine::evaluate_policy(
    const CampaignSpec& spec, std::size_t s, std::size_t e, std::size_t p,
    std::size_t q, const ScoreArtifact& scored, double threshold,
    std::span<const std::optional<SimTime>> alarms,
    const std::vector<std::pair<std::size_t, sim::DimmTrace>>& ue_traces)
    const {
  const PolicySpec& policy = spec.policies[q];
  const PredictorSpec& predictor = spec.predictors[p];
  const FleetArtifact& fleet = *scored.model->features->fleet;
  const std::vector<std::size_t>& test_dimm = scored.model->features->test.dimm;

  CampaignPointResult point;
  point.scenario = s;
  point.ecc = e;
  point.predictor = p;
  point.policy = q;
  point.name = spec.scenarios[s].name + "/" + spec.eccs[e].name + "/" +
               predictor.name + "/" + policy.name;
  point.threshold = threshold;

  const std::size_t n = scored.test.streams();
  MEMFP_CHECK_EQ(alarms.size(), n);
  std::vector<AlarmOutcome> outcomes(n);
  std::vector<FaultClass> classes(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Sudden UEs count too: their empty streams never alarm → FN, charged
    // to class kSudden in the attribution table.
    const std::size_t g = test_dimm[i];
    outcomes[i] = ground_truth(fleet.dimms[g], kPolicyLevel);
    outcomes[i].alarm = alarms[i];
    classes[i] = fleet.fault_class[g];
  }

  point.confusion = dimm_confusion(outcomes, predictor.windows);
  point.precision = point.confusion.precision();
  point.recall = point.confusion.recall();
  point.f1 = point.confusion.f1();
  point.attribution =
      attribute_outcomes(classes, outcomes, predictor.windows);
  point.mitigation =
      mlops::account_confusion(point.confusion.tp, point.confusion.fp,
                               point.confusion.fn, policy.mitigation);

  // Page-offline replay over the UE-bearing test DIMMs: would the UE's row
  // have been retired in time under this policy?
  sim::FleetOfflineReport offline;
  offline.dimms = ue_traces.size();
  for (const auto& [stream, trace] : ue_traces) {
    const std::optional<SimTime> alarm =
        policy.prediction_guided_offlining ? alarms[stream] : std::nullopt;
    const sim::OfflineOutcome outcome =
        sim::apply_page_offlining(trace, policy.offline, alarm);
    offline.rows_offlined += static_cast<std::size_t>(outcome.rows_offlined);
    offline.ces_avoided += outcome.ces_avoided;
    ++offline.ues_total;
    offline.ues_avoided += outcome.ue_row_offlined ? 1 : 0;
  }
  offline.prevention_rate =
      offline.ues_total == 0
          ? 0.0
          : static_cast<double>(offline.ues_avoided) /
                static_cast<double>(offline.ues_total);
  point.offline = offline;
  return point;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {
  MEMFP_CHECK(!config_.store_dir.empty())
      << "campaign: config.store_dir must name a spill directory";
}

CampaignEngine::~CampaignEngine() {
  if (config_.keep_store) return;
  for (const std::string& dir : owned_dirs_) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);  // best-effort cleanup
  }
}

CampaignResult CampaignEngine::run(const CampaignSpec& spec) {
  MEMFP_CHECK_GT(spec.points(), 0u) << "campaign: empty sweep";
  ThreadPool::ScopedLimit limit(config_.num_threads);

  CampaignResult result;
  result.stats.points = spec.points();

  const StageCounters before[kStageCount] = {
      cache_.counters(Stage::kSimulate), cache_.counters(Stage::kExtract),
      cache_.counters(Stage::kTrain), cache_.counters(Stage::kScore)};
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    for (std::size_t e = 0; e < spec.eccs.size(); ++e) {
      for (std::size_t p = 0; p < spec.predictors.size(); ++p) {
        const std::shared_ptr<const ScoreArtifact> scored = run_score(
            spec.scenarios[s], spec.eccs[e], spec.predictors[p],
            spec.sampling);
        // The whole policy axis collapses to one vectorized sweep over
        // the cached score streams.
        std::vector<double> thresholds;
        thresholds.reserve(spec.policies.size());
        for (const PolicySpec& policy : spec.policies) {
          thresholds.push_back(
              resolve_threshold(policy, scored->tuned_threshold));
        }
        const std::vector<std::optional<SimTime>> alarms =
            scored->test.first_alarms(thresholds);
        ++result.stats.policy_sweeps;
        const auto ue_traces = load_ue_test_traces(*scored);
        const std::size_t n = scored->test.streams();
        for (std::size_t q = 0; q < spec.policies.size(); ++q) {
          result.points.push_back(evaluate_policy(
              spec, s, e, p, q, *scored, thresholds[q],
              std::span(alarms).subspan(q * n, n), ue_traces));
        }
      }
    }
  }
  result.stats.simulate =
      counter_delta(before[0], cache_.counters(Stage::kSimulate));
  result.stats.extract =
      counter_delta(before[1], cache_.counters(Stage::kExtract));
  result.stats.train =
      counter_delta(before[2], cache_.counters(Stage::kTrain));
  result.stats.score =
      counter_delta(before[3], cache_.counters(Stage::kScore));

  for (const CampaignPointResult& point : result.points) {
    result.campaign_hash =
        sim::fnv1a_u64(result.campaign_hash, point.result_hash());
  }
  MEMFP_INFO << "campaign " << spec.name << ": " << result.points.size()
             << " points, simulate " << result.stats.simulate.misses
             << " miss/" << result.stats.simulate.hits << " hit, extract "
             << result.stats.extract.misses << "/"
             << result.stats.extract.hits << ", train "
             << result.stats.train.misses << "/" << result.stats.train.hits
             << ", score " << result.stats.score.misses << "/"
             << result.stats.score.hits << ", " << result.stats.policy_sweeps
             << " policy sweeps";
  return result;
}

}  // namespace memfp::core
