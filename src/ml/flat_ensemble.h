// Flattened, batched ensemble inference (the serving-side counterpart of
// the binned training layout — see DESIGN.md "Flattened ensemble
// inference").
//
// A fitted forest/GBDT is a std::vector<Tree> of pointer-linked (index-
// chained) TreeNode vectors; scoring it one row x one tree at a time is a
// dependent-load latency chain per tree level with no instruction-level
// parallelism. FlatEnsemble compiles the fitted trees once into contiguous
// SoA node arrays (feature ids, float thresholds, left-child offsets, leaf
// values packed per tree), re-laid out in level order with each internal
// node's two children at *adjacent* indices — descent is one branch-free
// `left[node] + (0|1)` step off a single offset array — and every leaf
// rewritten as a *self-loop* (left == self, threshold +inf, so the
// right-offset is never taken: even a NaN feature compares false against
// +inf). Batch traversal walks tree levels over a 64-row block: 64
// independent descent chains interleave in the inner loop, hiding node-load
// latency, while one tree's node arrays stay resident in L1/L2; a block
// stops a tree as soon as all of its rows are parked on leaves, so deep
// low-traffic branches (best-first trees) cost only the rows that take
// them.
//
// Input is float rows (a Matrix), compared against the raw stored
// thresholds with the exact `<=` the pointer walker uses, so flat output is
// bit-identical to Tree::predict by construction.
//
// Shrinkage is baked in at compile time: build(trees, leaf_scale) stores
// leaf_scale * leaf_value, the identical double product the GBDT walker
// computes per call, so accumulating `init + v_0 + v_1 + ...` in tree order
// reproduces the walker's float semantics bit for bit.
//
// Batch entry points parallelize over row blocks on the deterministic
// ThreadPool: every row writes only its own output slot and the block
// partition is a pure function of the row count, so scores are byte-
// identical at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/decision_tree.h"

namespace memfp::ml {

class FlatEnsemble {
 public:
  /// Compiles fitted trees into the flat SoA form. Leaf values are stored
  /// pre-multiplied by `leaf_scale` (1.0 for forests, the learning rate for
  /// GBDTs). An empty tree compiles to a single zero-valued leaf, matching
  /// Tree::predict on an empty node vector.
  static FlatEnsemble build(std::span<const Tree> trees,
                            double leaf_scale = 1.0);

  std::size_t trees() const { return roots_.size(); }
  std::size_t nodes() const { return feature_.size(); }
  int max_depth() const { return max_depth_; }

  /// init + sum of (scaled) leaf values for one float row, accumulated in
  /// tree order — bit-identical to walking each Tree in sequence.
  double predict_row(std::span<const float> features, double init) const;

  /// Batch scoring: out[r] = init + sum over trees, for every row of x.
  /// Parallel over row blocks; out.size() must equal x.rows().
  void predict(const Matrix& x, double init, std::span<double> out) const;

  /// Batch accumulation: out[r] += sum over trees (no init). Used by the
  /// GBDT trainer to fold one new tree's contribution into running scores.
  void accumulate(const Matrix& x, std::span<double> out) const;

 private:
  void score(const Matrix& x, double init, bool accumulate,
             std::span<double> out) const;

  // SoA node arrays over all trees, level-ordered per tree with sibling
  // pairs adjacent: left_[i] is the absolute index of node i's left child
  // and the right child is left_[i] + 1. Leaves are self-loops (left_[i]
  // == i) with threshold +inf and the pre-scaled leaf value.
  std::vector<std::int32_t> feature_;
  std::vector<float> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<double> value_;
  std::vector<std::int32_t> roots_;   // per-tree root node index
  std::vector<std::int32_t> depths_;  // per-tree max root->leaf edge count
  int max_depth_ = 0;

  /// Packs the SoA node arrays into one uint64 per node — float threshold
  /// bits | feature << 32 | (left_[i] - i) << 48 — the layout the SIMD block
  /// kernel gathers in a single 8-byte load (simd::KernelTable::
  /// flat_float_block). Leaves packed_ empty (disabling the SIMD path,
  /// scalar blocks still serve every call) if any left-child delta or
  /// feature id overflows its 16-bit field.
  void pack();

  std::vector<std::uint64_t> packed_;  // empty when the pack overflowed
};

/// Thread-safe lazily-compiled FlatEnsemble shared by a model's const
/// prediction paths. The compiled form is built on first use and reused
/// until invalidate() (retrain / deserialization replaced the trees).
/// Copying or moving a cache never shares or steals compiled state — both
/// sides are left with a valid (empty or intact) cache — so models stay
/// freely copyable.
class LazyFlatEnsemble {
 public:
  LazyFlatEnsemble() : state_(std::make_unique<State>()) {}
  LazyFlatEnsemble(const LazyFlatEnsemble&) : LazyFlatEnsemble() {}
  LazyFlatEnsemble(LazyFlatEnsemble&&) noexcept : LazyFlatEnsemble() {}
  LazyFlatEnsemble& operator=(const LazyFlatEnsemble&) {
    invalidate();
    return *this;
  }
  LazyFlatEnsemble& operator=(LazyFlatEnsemble&&) noexcept {
    invalidate();
    return *this;
  }

  /// The compiled form of `trees`, building it under the cache lock on
  /// first call. The caller owns keeping (trees, leaf_scale) fixed between
  /// invalidations; concurrent readers share one build.
  std::shared_ptr<const FlatEnsemble> get(std::span<const Tree> trees,
                                          double leaf_scale) const;

  /// Drops the compiled form; the next get() recompiles.
  void invalidate();

 private:
  struct State {
    std::mutex mutex;
    std::shared_ptr<const FlatEnsemble> flat;
  };
  std::unique_ptr<State> state_;
};

}  // namespace memfp::ml
