#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <vector>

#include "core/predictor.h"
#include "sim/fleet.h"
#include "sim/trace_store.h"

namespace memfp::core {
namespace {

/// Small shared fleet so the experiment tests stay fast.
const sim::FleetTrace& small_fleet() {
  static const sim::FleetTrace fleet =
      sim::simulate_fleet(sim::purley_scenario().scaled(0.12));
  return fleet;
}

TEST(Pipeline, AlgorithmNamesAndFactory) {
  EXPECT_STREQ(algorithm_name(Algorithm::kLightGbm), "LightGBM");
  EXPECT_STREQ(algorithm_name(Algorithm::kRiskyCePattern),
               "Risky CE Pattern");
  EXPECT_NE(make_model(Algorithm::kRandomForest), nullptr);
  EXPECT_NE(make_model(Algorithm::kFtTransformer), nullptr);
  EXPECT_THROW(make_model(Algorithm::kRiskyCePattern), std::invalid_argument);
}

TEST(Pipeline, TrainTestDimmsDisjoint) {
  PipelineConfig config;
  Experiment experiment(small_fleet(), config);
  // Training rows must come only from non-test DIMMs; reconstruct the test
  // ids from the counts and the training set's dimm column.
  std::set<dram::DimmId> train_ids(experiment.train_set().dimm.begin(),
                                   experiment.train_set().dimm.end());
  EXPECT_GT(experiment.test_dimm_count(), 0u);
  EXPECT_GT(train_ids.size(), 0u);
  // The experiment's own invariant: |train| + |val| + |test| <= eligible.
  EXPECT_LE(train_ids.size(), experiment.train_dimm_count());
}

TEST(Pipeline, TrainSetRespectsDownsamplingCaps) {
  PipelineConfig config;
  config.max_negatives_per_dimm = 3;
  config.max_positives_per_dimm = 5;
  Experiment experiment(small_fleet(), config);
  std::map<dram::DimmId, std::size_t> neg_counts, pos_counts;
  const ml::Dataset& train = experiment.train_set();
  for (std::size_t r = 0; r < train.size(); ++r) {
    if (train.y[r] == 1) ++pos_counts[train.dimm[r]];
    else ++neg_counts[train.dimm[r]];
  }
  for (const auto& [id, count] : neg_counts) EXPECT_LE(count, 3u);
  for (const auto& [id, count] : pos_counts) EXPECT_LE(count, 5u);
}

TEST(Pipeline, GbdtRunProducesSaneMetrics) {
  PipelineConfig config;
  Experiment experiment(small_fleet(), config);
  const Experiment::Result result = experiment.run(Algorithm::kLightGbm);
  EXPECT_TRUE(result.applicable);
  EXPECT_GE(result.precision, 0.0);
  EXPECT_LE(result.precision, 1.0);
  EXPECT_GE(result.recall, 0.0);
  EXPECT_LE(result.recall, 1.0);
  EXPECT_GE(result.f1, 0.0);
  EXPECT_LE(result.f1, 1.0);
  EXPECT_LE(result.virr, 1.0);
  // Totals must cover every evaluated DIMM.
  const auto total = result.confusion.tp + result.confusion.fp +
                     result.confusion.fn + result.confusion.tn;
  EXPECT_GE(total, experiment.test_dimm_count());
}

TEST(Pipeline, BaselineApplicableOnlyOnPurley) {
  PipelineConfig config;
  Experiment purley(small_fleet(), config);
  EXPECT_TRUE(purley.run(Algorithm::kRiskyCePattern).applicable);

  const sim::FleetTrace k920 =
      sim::simulate_fleet(sim::k920_scenario().scaled(0.05));
  Experiment other(k920, config);
  const Experiment::Result result = other.run(Algorithm::kRiskyCePattern);
  EXPECT_FALSE(result.applicable);
}

TEST(Pipeline, AblationRestrictsFeatures) {
  PipelineConfig config;
  // Keep only the temporal group.
  const features::FeatureSchema schema = features::FeatureSchema::standard();
  config.active_features =
      schema.group_indices(features::FeatureGroup::kTemporal);
  Experiment experiment(small_fleet(), config);
  EXPECT_EQ(experiment.train_set().x.cols(), config.active_features.size());
  const Experiment::Result result = experiment.run(Algorithm::kLightGbm);
  EXPECT_TRUE(result.applicable);  // runs end-to-end on the projected space
}

TEST(PipelineDeathTest, ActiveFeatureOutsideSchemaAborts) {
  PipelineConfig config;
  config.active_features = {0, features::FeatureSchema::standard().size()};
  // Checked before any DIMM is touched, so an empty fleet suffices.
  const sim::FleetTrace fleet;
  EXPECT_DEATH({ Experiment experiment(fleet, config); }, "active_features");
}

TEST(Pipeline, RunWithModelHandsBackFittedModel) {
  PipelineConfig config;
  Experiment experiment(small_fleet(), config);
  auto [result, model] = experiment.run_with_model(Algorithm::kLightGbm);
  ASSERT_NE(model, nullptr);
  // The model scores the training rows without throwing.
  const std::vector<double> scores =
      model->predict_batch(experiment.train_set().x);
  EXPECT_EQ(scores.size(), experiment.train_set().size());
}

// ---------------------------------------------------------------------------
// Golden pins: the evaluation protocol (split, per-DIMM downsampling,
// rebalancing, threshold tuning, DIMM-level scoring) must not drift. The
// values were captured before the protocol moved into core/protocol and
// must never be re-pinned to make a refactor pass.
// ---------------------------------------------------------------------------

std::uint64_t fold_result(std::uint64_t h, const Experiment::Result& r) {
  for (const std::size_t count :
       {r.confusion.tp, r.confusion.fp, r.confusion.fn, r.confusion.tn}) {
    h = sim::fnv1a_u64(h, count);
  }
  h = sim::fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.threshold));
  return sim::fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.f1));
}

std::uint64_t train_set_hash(const ml::Dataset& d) {
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a_u64(h, d.size());
  h = sim::fnv1a_u64(h, d.x.cols());
  for (std::size_t r = 0; r < d.size(); ++r) {
    for (const float value : d.x.row(r)) {
      h = sim::fnv1a_u64(h, std::bit_cast<std::uint32_t>(value));
    }
    h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(d.y[r]));
    h = sim::fnv1a_u64(h, std::bit_cast<std::uint32_t>(d.weight[r]));
    h = sim::fnv1a_u64(h, d.dimm[r]);
    h = sim::fnv1a_u64(h, static_cast<std::uint64_t>(d.time[r]));
  }
  for (const std::size_t col : d.categorical) h = sim::fnv1a_u64(h, col);
  return h;
}

constexpr std::uint64_t kGoldenResultsHash = 901595371943652319ULL;
constexpr std::uint64_t kGoldenTrainSetHash = 17583652418404990579ULL;

TEST(PipelineGolden, ResultsPinnedAtAnyThreadCount) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    PipelineConfig config;
    config.num_threads = threads;
    Experiment experiment(small_fleet(), config);
    std::uint64_t h = sim::kFnvOffset;
    for (const Algorithm algorithm :
         {Algorithm::kRandomForest, Algorithm::kLightGbm,
          Algorithm::kRiskyCePattern}) {
      h = fold_result(h, experiment.run(algorithm));
    }
    EXPECT_EQ(h, kGoldenResultsHash);
  }
}

TEST(PipelineGolden, TrainSetPinned) {
  Experiment experiment(small_fleet(), PipelineConfig{});
  EXPECT_EQ(train_set_hash(experiment.train_set()), kGoldenTrainSetHash);
}

constexpr std::uint64_t kGoldenAblationHash = 5683618646058161415ULL;

TEST(PipelineGolden, FeatureAblationPinned) {
  // Unsorted columns with a categorical one, so the projection's column
  // order and categorical remapping are both pinned.
  const features::FeatureSchema schema = features::FeatureSchema::standard();
  std::size_t categorical = 0;
  while (!schema.def(categorical).categorical) ++categorical;
  PipelineConfig config;
  config.active_features =
      schema.group_indices(features::FeatureGroup::kTemporal);
  std::reverse(config.active_features.begin(), config.active_features.end());
  config.active_features.push_back(categorical);
  Experiment experiment(small_fleet(), config);
  const std::uint64_t h = fold_result(train_set_hash(experiment.train_set()),
                                      experiment.run(Algorithm::kLightGbm));
  EXPECT_EQ(h, kGoldenAblationHash);
}

// ---------------------------------------------------------------------------
// Per-DIMM downsampling (TrainingSetBuilder)
// ---------------------------------------------------------------------------

/// Three samples of one DIMM on days 1-3 (positives for DIMM 0, negatives
/// otherwise); DIMM 0 also carries a too-late sample that must be dropped.
std::vector<features::Sample> tiny_dimm(dram::DimmId dimm) {
  std::vector<features::Sample> samples;
  for (int s = 0; s < 3; ++s) {
    features::Sample sample;
    sample.dimm = dimm;
    sample.time = days(s + 1);
    sample.label = dimm == 0 ? 1 : 0;
    sample.features = {static_cast<float>(dimm), static_cast<float>(s)};
    samples.push_back(sample);
  }
  if (dimm == 0) {
    features::Sample too_late = samples.back();
    too_late.label = -1;
    samples.push_back(too_late);
  }
  return samples;
}

ml::Dataset tiny_training_set(std::size_t max_negatives,
                              std::size_t max_positives) {
  SamplingParams sampling;
  sampling.max_negatives_per_dimm = max_negatives;
  sampling.max_positives_per_dimm = max_positives;
  Rng rng(7);
  TrainingSetBuilder builder(features::FeatureSchema::standard().subset({0, 1}),
                             sampling, rng);
  for (dram::DimmId dimm = 0; dimm < 4; ++dimm) {
    builder.add_dimm(tiny_dimm(dimm));
  }
  return builder.finish();
}

TEST(Downsample, CapsNegativesPerDimm) {
  const ml::Dataset down = tiny_training_set(1, 10);
  // 3 negative DIMMs capped at 1 row each + 3 positive rows.
  EXPECT_EQ(down.size(), 6u);
  EXPECT_EQ(down.positives(), 3u);
  std::set<dram::DimmId> negative_dimms;
  for (std::size_t r = 0; r < down.size(); ++r) {
    if (down.y[r] == 0) negative_dimms.insert(down.dimm[r]);
  }
  EXPECT_EQ(negative_dimms.size(), 3u);
}

TEST(Downsample, KeepsLatestPositives) {
  const ml::Dataset down = tiny_training_set(10, 1);
  ASSERT_EQ(down.positives(), 1u);
  for (std::size_t r = 0; r < down.size(); ++r) {
    if (down.y[r] == 1) {
      EXPECT_EQ(down.time[r], days(3));  // the latest positive sample
    }
  }
}

TEST(Predictor, TrainScorePredictRoundTrip) {
  MemoryFailurePredictor::Options options;
  options.algorithm = Algorithm::kLightGbm;
  MemoryFailurePredictor predictor(dram::Platform::kIntelPurley, options);
  EXPECT_FALSE(predictor.trained());
  EXPECT_THROW(predictor.score(small_fleet().dimms.front(), days(10)),
               std::logic_error);

  predictor.train(small_fleet());
  EXPECT_TRUE(predictor.trained());
  EXPECT_GT(predictor.threshold(), 0.0);

  // Scores are probabilities over the whole fleet.
  int scored = 0;
  for (const sim::DimmTrace& dimm : small_fleet().dimms) {
    if (dimm.ces.empty()) continue;
    const double score = predictor.score(dimm, days(100));
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
    if (++scored >= 25) break;
  }
  // Export carries the model artifact.
  const Json exported = predictor.to_json();
  EXPECT_EQ(exported.at("platform").as_string(), "Intel Purley");
  EXPECT_TRUE(exported.contains("model"));
}

TEST(Predictor, RejectsMismatchedPlatform) {
  MemoryFailurePredictor predictor(dram::Platform::kK920);
  EXPECT_THROW(predictor.train(small_fleet()), std::invalid_argument);
}

TEST(Predictor, QuietDimmScoresZero) {
  MemoryFailurePredictor::Options options;
  options.algorithm = Algorithm::kLightGbm;
  MemoryFailurePredictor predictor(dram::Platform::kIntelPurley, options);
  predictor.train(small_fleet());
  sim::DimmTrace quiet;
  quiet.platform = dram::Platform::kIntelPurley;
  EXPECT_EQ(predictor.score(quiet, days(50)), 0.0);
  EXPECT_FALSE(predictor.predict(quiet, days(50)));
}

}  // namespace
}  // namespace memfp::core
