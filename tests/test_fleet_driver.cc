// Determinism contract of the sharded fleet driver (src/core/fleet_driver.h):
// for any shard count and any thread count, the spill-and-stream pipeline
// produces traces, features, and scores byte-identical to the in-memory
// path. Suite names carry "Determinism" so the TSan leg of tools/check.sh
// picks these up alongside the thread-pool suites.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <span>
#include <string>

#include "common/thread_pool.h"
#include "ml/model.h"
#include "core/fleet_driver.h"

namespace memfp::core {
namespace {

std::string temp_store(const std::string& leaf) {
  const auto dir = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Deterministic stand-in for a trained classifier: cheap, stateless, and
/// exercising every feature value, so a single flipped feature bit flips
/// the folded score hash.
class LinearStub final : public ml::BinaryClassifier {
 public:
  void fit(const ml::Dataset&, Rng&) override {}
  double predict(std::span<const float> features) const override {
    double s = 0.0;
    for (std::size_t i = 0; i < features.size(); ++i) {
      s += static_cast<double>(i % 7 + 1) * static_cast<double>(features[i]);
    }
    return s / (1.0 + std::fabs(s));
  }
  std::string name() const override { return "linear-stub"; }
  Json to_json() const override { return Json::object(); }
};

sim::ScenarioParams small_scenario() {
  // ~170 planned DIMMs: big enough that every shard in a 16-way split is
  // non-trivial, small enough for a sub-minute matrix on one core.
  return sim::purley_scenario(/*seed=*/99).scaled(0.04);
}

TEST(FleetDriverDeterminism, ShardAndThreadInvariant) {
  const sim::ScenarioParams params = small_scenario();
  const LinearStub model;
  const features::PredictionWindows windows;
  const FleetDriverResult reference =
      reference_fleet_result(params, windows, &model);
  ASSERT_GT(reference.observed_dimms, 0u);
  ASSERT_GT(reference.samples, 0u);

  const std::string store = temp_store("memfp_fleet_driver_matrix");
  for (const std::size_t shards : {1, 4, 16}) {
    for (const int threads : {1, 2, 4}) {
      FleetDriverConfig config;
      config.store_dir = store;
      config.shards = shards;
      config.num_threads = threads;
      config.windows = windows;
      const FleetDriverResult run =
          run_fleet_driver(params, config, &model);
      SCOPED_TRACE(testing::Message()
                   << shards << " shards, " << threads << " threads");
      EXPECT_EQ(run.planned_dimms, reference.planned_dimms);
      EXPECT_EQ(run.observed_dimms, reference.observed_dimms);
      EXPECT_EQ(run.events(), reference.events());
      EXPECT_EQ(run.samples, reference.samples);
      EXPECT_EQ(run.trace_hash, reference.trace_hash);
      EXPECT_EQ(run.feature_hash, reference.feature_hash);
      EXPECT_EQ(run.score_hash, reference.score_hash);
      EXPECT_EQ(run.score_sum, reference.score_sum);
    }
  }
  std::filesystem::remove_all(store);
}

// Golden pins on the driver's own output. ShardAndThreadInvariant compares
// the driver with reference_fleet_result, but both fold through the same
// codec and fold_sample_hash, so a change to either moves both sides
// together; these constants do not move.
constexpr std::size_t kGoldenObservedDimms = 219;
constexpr std::size_t kGoldenSamples = 31756;
constexpr std::uint64_t kGoldenTraceHash = 4636479359465254229ULL;
constexpr std::uint64_t kGoldenFeatureHash = 18252525789765420246ULL;
constexpr std::uint64_t kGoldenScoreHash = 3518176279017932263ULL;

TEST(FleetDriverDeterminism, GoldenHashesPinned) {
  const sim::ScenarioParams params = small_scenario();
  const LinearStub model;
  const std::string store = temp_store("memfp_fleet_driver_golden");
  for (const int threads : {1, 4}) {
    FleetDriverConfig config;
    config.store_dir = store;
    config.shards = 4;
    config.num_threads = threads;
    const FleetDriverResult run = run_fleet_driver(params, config, &model);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    EXPECT_EQ(run.observed_dimms, kGoldenObservedDimms);
    EXPECT_EQ(run.samples, kGoldenSamples);
    EXPECT_EQ(run.trace_hash, kGoldenTraceHash);
    EXPECT_EQ(run.feature_hash, kGoldenFeatureHash);
    EXPECT_EQ(run.score_hash, kGoldenScoreHash);
  }
  std::filesystem::remove_all(store);
}

TEST(FleetDriverDeterminism, PlannerChunkingImmaterial) {
  const sim::ScenarioParams params = small_scenario();
  sim::FleetPlanner whole(params);
  const std::vector<sim::PlannedDimm> all = whole.take(whole.plan().total());

  sim::FleetPlanner chunked(params);
  std::vector<sim::PlannedDimm> pieces;
  // Deliberately ragged chunks, including empty ones.
  for (const std::size_t chunk : {1u, 0u, 7u, 64u, 3u, 1000u, 9u}) {
    for (const sim::PlannedDimm& job : chunked.take(chunk)) {
      pieces.push_back(job);
    }
  }
  ASSERT_EQ(pieces.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(pieces[i].id, all[i].id);
    EXPECT_EQ(pieces[i].kind, all[i].kind);
    // Identical RNG state <=> identical draw stream.
    Rng a = all[i].rng;
    Rng b = pieces[i].rng;
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
  }
  EXPECT_EQ(chunked.take(1).size(), 0u);  // population exhausted
}

TEST(FleetDriverDeterminism, SimulateFleetMatchesDriverTraces) {
  // The refactored in-memory builder and the sharded driver must agree on
  // the observed population, not just on hashes of it.
  const sim::ScenarioParams params = small_scenario();
  const sim::FleetTrace fleet = sim::simulate_fleet(params);

  const std::string store = temp_store("memfp_fleet_driver_traces");
  FleetDriverConfig config;
  config.store_dir = store;
  config.shards = 5;
  config.keep_store = true;
  const FleetDriverResult run = run_fleet_driver(params, config, nullptr);
  ASSERT_EQ(run.observed_dimms, fleet.dimms.size());

  std::uint64_t resident_hash = sim::kFnvOffset;
  for (const sim::DimmTrace& dimm : fleet.dimms) {
    resident_hash = sim::fnv1a_u64(resident_hash, sim::trace_content_hash(dimm));
  }
  EXPECT_EQ(run.trace_hash, resident_hash);

  // And the spilled records decode back to the same DIMMs in id order.
  std::size_t next = 0;
  for (const std::string& path : run.shard_files) {
    const sim::TraceReader reader(path);
    for (std::size_t i = 0; i < reader.dimm_count(); ++i, ++next) {
      EXPECT_EQ(reader.read_dimm(i).id, fleet.dimms[next].id);
      EXPECT_EQ(sim::trace_content_hash(reader.read_dimm(i)),
                sim::trace_content_hash(fleet.dimms[next]));
    }
  }
  EXPECT_EQ(next, fleet.dimms.size());
  std::filesystem::remove_all(store);
}

TEST(FleetDriverDeterminism, BoundedWorkingSetStats) {
  // Spilled bytes and event counts add up across shards exactly.
  const sim::ScenarioParams params = small_scenario();
  const std::string store = temp_store("memfp_fleet_driver_stats");
  FleetDriverConfig config;
  config.store_dir = store;
  config.shards = 3;
  config.keep_store = true;
  const FleetDriverResult run = run_fleet_driver(params, config, nullptr);

  std::uint64_t file_bytes = 0;
  std::size_t dimms = 0;
  for (const std::string& path : run.shard_files) {
    file_bytes += std::filesystem::file_size(path);
    dimms += sim::TraceReader(path).dimm_count();
  }
  EXPECT_EQ(file_bytes, run.encoded_bytes);
  EXPECT_EQ(dimms, run.observed_dimms);
  std::filesystem::remove_all(store);
}

}  // namespace
}  // namespace memfp::core
