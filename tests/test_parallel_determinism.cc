// The determinism contract of the threading work: the fleet simulator, the
// forest/GBDT trainers, the FT-Transformer's batch scoring and the
// pipeline's eval partitions must produce byte-identical results at every
// thread count (same seed => same Table II numbers at 1, 4 and N threads).
// These tests run each hot path under ScopedLimit(1) and ScopedLimit(4) and
// compare outputs exactly — no tolerances.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "ml/ft_transformer.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "sim/fleet.h"

namespace memfp {
namespace {

sim::FleetTrace fleet_at(int threads) {
  ThreadPool::ScopedLimit cap(threads);
  return sim::simulate_fleet(sim::purley_scenario().scaled(0.05));
}

void expect_identical_fleets(const sim::FleetTrace& a,
                             const sim::FleetTrace& b) {
  ASSERT_EQ(a.dimms.size(), b.dimms.size());
  for (std::size_t i = 0; i < a.dimms.size(); ++i) {
    const sim::DimmTrace& x = a.dimms[i];
    const sim::DimmTrace& y = b.dimms[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.server_id, y.server_id);
    EXPECT_EQ(x.config.part_number, y.config.part_number);
    ASSERT_EQ(x.ces.size(), y.ces.size()) << "DIMM " << x.id;
    for (std::size_t e = 0; e < x.ces.size(); ++e) {
      EXPECT_EQ(x.ces[e].time, y.ces[e].time);
      EXPECT_EQ(x.ces[e].coord.row, y.ces[e].coord.row);
      EXPECT_EQ(x.ces[e].coord.column, y.ces[e].coord.column);
    }
    ASSERT_EQ(x.ue.has_value(), y.ue.has_value()) << "DIMM " << x.id;
    if (x.ue) {
      EXPECT_EQ(x.ue->time, y.ue->time);
    }
    EXPECT_EQ(x.workload.cpu_utilization, y.workload.cpu_utilization);
  }
}

TEST(ParallelDeterminism, FleetTraceIdenticalAcrossThreadCounts) {
  const sim::FleetTrace serial = fleet_at(1);
  const sim::FleetTrace wide = fleet_at(4);
  expect_identical_fleets(serial, wide);
}

ml::Dataset synthetic_dataset(std::size_t rows) {
  Rng rng(17);
  ml::Dataset d;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<float> row(24);
    for (float& v : row) v = static_cast<float>(rng.normal());
    // Plant signal so trees actually split.
    if (rng.bernoulli(0.25)) {
      row[3] += 2.0f;
      d.y.push_back(1);
    } else {
      d.y.push_back(0);
    }
    d.x.push_row(row);
    d.weight.push_back(1.0f);
    d.dimm.push_back(static_cast<dram::DimmId>(i));
    d.time.push_back(0);
  }
  return d;
}

TEST(ParallelDeterminism, RandomForestIdenticalAcrossThreadCounts) {
  const ml::Dataset d = synthetic_dataset(600);
  const auto fit_at = [&](int threads) {
    ThreadPool::ScopedLimit cap(threads);
    ml::RandomForestParams params;
    params.trees = 20;
    ml::RandomForest model(params);
    Rng rng(5);
    model.fit(d, rng);
    return model;
  };
  const ml::RandomForest serial = fit_at(1);
  const ml::RandomForest wide = fit_at(4);
  ASSERT_EQ(serial.trees().size(), wide.trees().size());
  // Tree-for-tree structural identity via the JSON serialization.
  EXPECT_EQ(serial.to_json().dump(), wide.to_json().dump());
  for (std::size_t r = 0; r < d.size(); r += 37) {
    EXPECT_EQ(serial.predict(d.x.row(r)), wide.predict(d.x.row(r)));
  }
}

TEST(ParallelDeterminism, GbdtIdenticalAcrossThreadCounts) {
  const ml::Dataset d = synthetic_dataset(800);
  const auto fit_at = [&](int threads) {
    ThreadPool::ScopedLimit cap(threads);
    ml::GbdtParams params;
    params.max_rounds = 20;
    params.early_stopping_rounds = 0;
    ml::Gbdt model(params);
    Rng rng(6);
    model.fit(d, rng);
    return model;
  };
  const ml::Gbdt serial = fit_at(1);
  const ml::Gbdt wide = fit_at(4);
  EXPECT_EQ(serial.to_json().dump(), wide.to_json().dump());
}

ml::Dataset weighted_dataset(std::size_t rows) {
  // Non-unit weights + several correlated signal columns: drives deep trees
  // whose histograms chain through repeated parent-minus-child subtractions.
  Rng rng(23);
  ml::Dataset d;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<float> row(20);
    for (float& v : row) v = static_cast<float>(rng.normal());
    const bool positive = rng.bernoulli(0.3);
    if (positive) {
      row[1] += 1.0f;
      row[4] += static_cast<float>(rng.uniform());
      row[9] -= 1.5f;
    }
    d.y.push_back(positive ? 1 : 0);
    d.x.push_row(row);
    d.weight.push_back(static_cast<float>(0.5 + rng.uniform()));
    d.dimm.push_back(static_cast<dram::DimmId>(i));
    d.time.push_back(0);
  }
  return d;
}

TEST(ParallelDeterminism, GbdtSubtractionPathIdenticalAcrossThreadCounts) {
  // Deep leaf-wise trees so sibling histograms are derived by subtraction
  // many levels down; the derived splits must still be a pure function of
  // the seed, never of the thread count.
  const ml::Dataset d = weighted_dataset(3000);
  const auto fit_at = [&](int threads) {
    ThreadPool::ScopedLimit cap(threads);
    ml::GbdtParams params;
    params.max_rounds = 12;
    params.early_stopping_rounds = 0;
    params.tree.max_leaves = 63;
    params.tree.max_depth = 16;
    ml::Gbdt model(params);
    Rng rng(31);
    model.fit(d, rng);
    return model.to_json().dump();
  };
  const std::string serial = fit_at(1);
  EXPECT_EQ(serial, fit_at(2));
  EXPECT_EQ(serial, fit_at(4));
}

TEST(ParallelDeterminism, ForestSubtractionPathIdenticalAcrossThreadCounts) {
  const ml::Dataset d = weighted_dataset(2000);
  const auto fit_at = [&](int threads) {
    ThreadPool::ScopedLimit cap(threads);
    ml::RandomForestParams params;
    params.trees = 12;
    params.tree.max_depth = 16;
    params.tree.min_samples_leaf = 2.0;
    ml::RandomForest model(params);
    Rng rng(37);
    model.fit(d, rng);
    return model.to_json().dump();
  };
  const std::string serial = fit_at(1);
  EXPECT_EQ(serial, fit_at(2));
  EXPECT_EQ(serial, fit_at(4));
}

TEST(ParallelDeterminism, ExperimentResultIdenticalAcrossThreadCounts) {
  // End to end: a Random Forest run's confusion matrix and tuned threshold
  // must not depend on the thread count (the seed fully determines Table II).
  const sim::FleetTrace fleet =
      sim::simulate_fleet(sim::purley_scenario().scaled(0.05));
  const auto run_at = [&](int threads) {
    core::PipelineConfig config;
    config.num_threads = threads;
    core::Experiment experiment(fleet, config);
    return experiment.run(core::Algorithm::kRandomForest);
  };
  const core::Experiment::Result serial = run_at(1);
  const core::Experiment::Result wide = run_at(4);
  EXPECT_EQ(serial.confusion.tp, wide.confusion.tp);
  EXPECT_EQ(serial.confusion.fp, wide.confusion.fp);
  EXPECT_EQ(serial.confusion.fn, wide.confusion.fn);
  EXPECT_EQ(serial.confusion.tn, wide.confusion.tn);
  EXPECT_EQ(serial.threshold, wide.threshold);
  EXPECT_EQ(serial.precision, wide.precision);
  EXPECT_EQ(serial.recall, wide.recall);
  EXPECT_EQ(serial.f1, wide.f1);
}

TEST(ParallelDeterminism, EvalPartitionIdenticalAcrossThreadCounts) {
  const sim::FleetTrace fleet =
      sim::simulate_fleet(sim::purley_scenario().scaled(0.05));
  core::PipelineConfig config;
  core::Experiment experiment(fleet, config);
  auto [result, model] =
      experiment.run_with_model(core::Algorithm::kRandomForest);
  ASSERT_NE(model, nullptr);

  const auto partition_at = [&](int threads) {
    ThreadPool::ScopedLimit cap(threads);
    const core::EvalPartition partition =
        experiment.eval_partition(experiment.test_dimms());
    return std::pair(partition, partition.score(*model));
  };
  const auto [one, one_scored] = partition_at(1);
  const auto [four, four_scored] = partition_at(4);
  // DIMMs are appended in order: element for element.
  ASSERT_EQ(one.streams.streams(), experiment.test_dimm_count());
  EXPECT_EQ(one.dimm, four.dimm);
  EXPECT_EQ(one.streams.offsets, four.streams.offsets);
  EXPECT_EQ(one.streams.times, four.streams.times);
  ASSERT_EQ(one.x.rows(), four.x.rows());
  ASSERT_EQ(one.x.cols(), four.x.cols());
  for (std::size_t r = 0; r < one.x.rows(); ++r) {
    ASSERT_TRUE(std::ranges::equal(one.x.row(r), four.x.row(r))) << r;
  }
  EXPECT_EQ(one_scored.offsets, one.streams.offsets);
  EXPECT_EQ(one_scored.times, one.streams.times);
  EXPECT_EQ(one_scored.scores, four_scored.scores);
}

TEST(ParallelDeterminism,
     FtTransformerPredictBatchIdenticalAcrossThreadCounts) {
  // More than two 512-row chunks, so the chunks run on several workers.
  Rng rng(41);
  ml::Dataset d;
  for (int i = 0; i < 1300; ++i) {
    const float x0 = static_cast<float>(rng.normal());
    d.x.push_row(std::vector<float>{x0, static_cast<float>(rng.normal())});
    d.y.push_back(rng.bernoulli(x0 > 0.0f ? 0.8 : 0.2) ? 1 : 0);
    d.weight.push_back(1.0f);
    d.dimm.push_back(static_cast<dram::DimmId>(i));
    d.time.push_back(0);
  }
  ml::FtTransformerParams params;
  params.d_model = 8;
  params.blocks = 1;
  params.epochs = 2;
  ml::FtTransformer model(params);
  model.fit(d, rng);

  const auto batch_at = [&](int threads) {
    ThreadPool::ScopedLimit cap(threads);
    return model.predict_batch(d.x);
  };
  const std::vector<double> one = batch_at(1);
  const std::vector<double> four = batch_at(4);
  ASSERT_EQ(one.size(), d.size());
  ASSERT_EQ(four.size(), d.size());
  for (std::size_t r = 0; r < d.size(); ++r) {
    const double single = model.predict(d.x.row(r));
    // Bit patterns, not values: the contract is byte identity.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(one[r]),
              std::bit_cast<std::uint64_t>(single))
        << r;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(four[r]),
              std::bit_cast<std::uint64_t>(single))
        << r;
  }
}

}  // namespace
}  // namespace memfp
