// Flattened ensemble inference engine (src/ml/flat_ensemble.*): locks the
// pointer walker, the flat single-row path and the batch-parallel path
// (predict and the accumulate the GBDT trainer rescores with) to
// bit-identical scores via FNV-1a hashes over the raw score doubles, at
// 1/2/4 threads, on every SIMD lane for accumulate, through serialization
// round-trips, and on degenerate trees (single leaf, max-depth chains).
//
// The reference hash is always computed from the pointer walker
// (Tree::predict summed in tree order) — the pre-flat semantics every other
// path must reproduce exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "ml/flat_ensemble.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"

namespace memfp::ml {
namespace {

std::uint64_t fnv1a64_u64(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the exact bit patterns of the scores: any single-ulp drift
/// anywhere in the batch changes the hash.
std::uint64_t hash_scores(const std::vector<double>& scores) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double s : scores) h = fnv1a64_u64(h, std::bit_cast<std::uint64_t>(s));
  return h;
}

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Mixed signal/noise columns, a low-cardinality categorical and non-unit
/// weights (same shape as the binned-layout golden generator).
Dataset make_data(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<float> row(16);
    for (float& v : row) v = static_cast<float>(rng.normal());
    row[5] = static_cast<float>(rng.uniform_u64(4));
    const bool positive = rng.bernoulli(0.3);
    if (positive) {
      row[2] += 1.5f;
      row[7] -= 2.0f;
    }
    d.y.push_back(positive ? 1 : 0);
    d.x.push_row(row);
    d.weight.push_back(i % 5 == 0 ? 2.5f : 1.0f);
    d.dimm.push_back(static_cast<dram::DimmId>(i));
    d.time.push_back(0);
  }
  d.categorical.push_back(5);
  return d;
}

/// The pre-flat forest semantics: walk every pointer-linked tree per row.
std::vector<double> walker_forest(const RandomForest& model, const Matrix& x) {
  std::vector<double> scores;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double total = 0.0;
    for (const Tree& tree : model.trees()) total += tree.predict(x.row(r));
    scores.push_back(total / static_cast<double>(model.trees().size()));
  }
  return scores;
}

/// The pre-flat GBDT semantics; prior and shrinkage read back from the
/// serialized form (they are private).
std::vector<double> walker_gbdt(const Gbdt& model, const Matrix& x) {
  const Json json = model.to_json();
  const double base = json.at("base_score").as_number();
  const double lr = json.at("learning_rate").as_number();
  std::vector<double> scores;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double raw = base;
    for (const Tree& tree : model.trees()) {
      raw += lr * tree.predict(x.row(r));
    }
    scores.push_back(sigmoid(raw));
  }
  return scores;
}

RandomForest fitted_forest(const Dataset& d) {
  RandomForestParams params;
  params.trees = 25;
  RandomForest model(params);
  Rng rng(101);
  model.fit(d, rng);
  return model;
}

Gbdt fitted_gbdt(const Dataset& d) {
  GbdtParams params;
  params.max_rounds = 25;
  Gbdt model(params);
  Rng rng(202);
  model.fit(d, rng);
  return model;
}

TEST(FlatEnsemble, ForestBatchMatchesWalkerAtEveryThreadCount) {
  const Dataset d = make_data(900, 77);
  const RandomForest model = fitted_forest(d);
  const std::uint64_t golden = hash_scores(walker_forest(model, d.x));
  for (int threads : {1, 2, 4}) {
    ThreadPool::ScopedLimit cap(threads);
    EXPECT_EQ(hash_scores(model.predict_batch(d.x)), golden)
        << "at " << threads << " threads";
  }
}

TEST(FlatEnsemble, GbdtBatchMatchesWalkerAtEveryThreadCount) {
  const Dataset d = make_data(900, 77);
  const Gbdt model = fitted_gbdt(d);
  const std::uint64_t golden = hash_scores(walker_gbdt(model, d.x));
  for (int threads : {1, 2, 4}) {
    ThreadPool::ScopedLimit cap(threads);
    EXPECT_EQ(hash_scores(model.predict_batch(d.x)), golden)
        << "at " << threads << " threads";
  }
}

TEST(FlatEnsemble, SingleRowPredictMatchesWalker) {
  const Dataset d = make_data(400, 31);
  const RandomForest forest = fitted_forest(d);
  const Gbdt gbdt = fitted_gbdt(d);
  const std::vector<double> forest_ref = walker_forest(forest, d.x);
  const std::vector<double> gbdt_ref = walker_gbdt(gbdt, d.x);
  for (std::size_t r = 0; r < d.size(); ++r) {
    EXPECT_EQ(forest.predict(d.x.row(r)), forest_ref[r]);
    EXPECT_EQ(gbdt.predict(d.x.row(r)), gbdt_ref[r]);
  }
}

// The GBDT trainer folds every new tree into its running scores through
// accumulate(), so `+=` must add exactly the predicted sum on every SIMD
// lane (the AVX-512 block kernel's accumulate branch included) and at any
// thread count. Rows start from distinct offsets so a kernel that stored
// instead of adding would show.
TEST(FlatEnsemble, AccumulateAddsExactlyThePredictedSum) {
  const Dataset d = make_data(300, 21);
  const Gbdt gbdt = fitted_gbdt(d);
  const double lr = gbdt.to_json().at("learning_rate").as_number();
  const FlatEnsemble flat = FlatEnsemble::build(gbdt.trees(), lr);

  std::vector<double> predicted(d.size());
  {
    simd::ScopedLevel scalar(simd::Level::kScalar);
    flat.predict(d.x, 0.0, predicted);
  }
  std::vector<double> offset(d.size()), expected(d.size());
  for (std::size_t r = 0; r < d.size(); ++r) {
    offset[r] = 0.25 * static_cast<double>(r % 7) - 0.5;
    expected[r] = offset[r] + predicted[r];
  }
  for (simd::Level level : simd::supported_levels()) {
    simd::ScopedLevel active(level);
    for (int threads : {1, 2, 4}) {
      ThreadPool::ScopedLimit cap(threads);
      std::vector<double> accumulated = offset;
      flat.accumulate(d.x, accumulated);
      EXPECT_EQ(hash_scores(accumulated), hash_scores(expected))
          << simd::level_name(level) << " at " << threads << " threads";
    }
  }
}

TEST(FlatEnsemble, SerializationRoundTripPredictsIdentically) {
  const Dataset d = make_data(500, 91);
  const RandomForest forest = fitted_forest(d);
  const Gbdt gbdt = fitted_gbdt(d);
  const RandomForest forest2 = RandomForest::from_json(forest.to_json());
  const Gbdt gbdt2 = Gbdt::from_json(gbdt.to_json());
  for (int threads : {1, 4}) {
    ThreadPool::ScopedLimit cap(threads);
    EXPECT_EQ(hash_scores(forest2.predict_batch(d.x)),
              hash_scores(walker_forest(forest, d.x)));
    EXPECT_EQ(hash_scores(gbdt2.predict_batch(d.x)),
              hash_scores(walker_gbdt(gbdt, d.x)));
  }
  EXPECT_EQ(forest2.predict(d.x.row(7)), forest.predict(d.x.row(7)));
  EXPECT_EQ(gbdt2.predict(d.x.row(7)), gbdt.predict(d.x.row(7)));
}

TEST(FlatEnsemble, SingleLeafTreeNeedsNoFeatures) {
  Tree leaf;
  leaf.mutable_nodes().push_back({-1, 0.0f, -1, -1, 0.375});
  const FlatEnsemble flat = FlatEnsemble::build({&leaf, 1});
  EXPECT_EQ(flat.max_depth(), 0);
  // A pure-leaf ensemble never touches the feature row — even an empty one.
  EXPECT_EQ(flat.predict_row({}, 0.0), 0.375);
  const Matrix x(3, 0);
  std::vector<double> out(3, -1.0);
  flat.predict(x, 0.0, out);
  for (double v : out) EXPECT_EQ(v, 0.375);
}

TEST(FlatEnsemble, EmptyTreeAndEmptyEnsembleScoreLikeTheWalker) {
  const Tree empty;  // Tree::predict returns 0.0 on an empty node vector
  const FlatEnsemble flat = FlatEnsemble::build({&empty, 1});
  std::vector<float> row(4, 1.0f);
  EXPECT_EQ(flat.predict_row(row, 2.5), 2.5 + empty.predict(row));
  const FlatEnsemble none = FlatEnsemble::build({});
  EXPECT_EQ(none.predict_row(row, 1.25), 1.25);
  EXPECT_EQ(none.trees(), 0u);
}

/// A maximally skewed tree: `depth` internal nodes chained down the right
/// spine, each hanging one leaf off the left.
Tree chain_tree(int depth) {
  Tree tree;
  auto& nodes = tree.mutable_nodes();
  for (int k = 0; k < depth; ++k) {
    TreeNode node;
    node.feature = 0;
    node.threshold = -10.0f + 0.5f * static_cast<float>(k);
    node.left = depth + k;
    node.right = k + 1 < depth ? k + 1 : 2 * depth;
    nodes.push_back(node);
  }
  for (int k = 0; k <= depth; ++k) {
    nodes.push_back({-1, 0.0f, -1, -1, 0.125 * static_cast<double>(k) - 1.0});
  }
  return tree;
}

TEST(FlatEnsemble, MaxDepthChainMatchesWalkerLevelForLevel) {
  const Tree chain = chain_tree(200);
  const FlatEnsemble flat = FlatEnsemble::build({&chain, 1});
  EXPECT_EQ(flat.max_depth(), 200);
  Matrix x;
  for (float v = -12.0f; v <= 95.0f; v += 0.25f) {
    x.push_row(std::vector<float>{v});
  }
  std::vector<double> batch(x.rows());
  for (int threads : {1, 2, 4}) {
    ThreadPool::ScopedLimit cap(threads);
    flat.predict(x, 0.0, batch);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      EXPECT_EQ(batch[r], chain.predict(x.row(r))) << "row " << r;
      EXPECT_EQ(flat.predict_row(x.row(r), 0.0), chain.predict(x.row(r)));
    }
  }
}

TEST(FlatEnsemble, LazyCacheRebuildsAfterInvalidate) {
  const Dataset d = make_data(200, 8);
  LazyFlatEnsemble cache;
  const RandomForest model = fitted_forest(d);
  const auto first = cache.get(model.trees(), 1.0);
  const auto second = cache.get(model.trees(), 1.0);
  EXPECT_EQ(first.get(), second.get());  // shared compiled form
  cache.invalidate();
  const auto third = cache.get(model.trees(), 1.0);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(third->trees(), model.trees().size());
}

}  // namespace
}  // namespace memfp::ml
