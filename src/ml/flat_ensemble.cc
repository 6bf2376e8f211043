#include "ml/flat_ensemble.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace memfp::ml {
namespace {

/// Rows per traversal block: enough independent descent chains to hide the
/// node-load latency of one level, small enough that the block's index and
/// accumulator state plus one tree's node arrays stay L1-resident.
constexpr std::size_t kRowBlock = 64;

/// Raw pointers into the SoA arrays, so the kernels below index without
/// touching the owning vectors. Right children sit at left[node] + 1.
struct NodeView {
  const std::int32_t* feature;
  const float* threshold;
  const std::int32_t* left;
  const double* value;
  const std::int32_t* roots;
  const std::int32_t* depths;
  std::size_t trees;
};

/// Scores one block of `n <= kRowBlock` float rows (rows[i] is block-local
/// row i) into out[base_row, base_row + n). A row descends right iff
/// `!(x <= t)` — the walker's comparison for every float, NaN included —
/// and the `t < inf` mask keeps it at 0 on a leaf, whose self-loop then
/// makes extra levels no-ops, so the inner loop carries no per-row exit
/// branch. A per-level `changed` fold stops the tree once every row in the
/// block is parked on a leaf: the level count paid is the deepest leaf
/// *these 64 rows* reach, not the tree's max depth (best-first trees grow
/// deep, rarely-taken branches). Accumulation order is tree 0, 1, ... —
/// exactly the pointer walker's.
void score_block(const NodeView& v, const float* const* rows,
                 std::size_t base_row, std::size_t n, double init,
                 bool accumulate, double* out) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::int32_t idx[kRowBlock];
  double acc[kRowBlock];
  for (std::size_t i = 0; i < n; ++i) acc[i] = accumulate ? 0.0 : init;
  for (std::size_t t = 0; t < v.trees; ++t) {
    const std::int32_t root = v.roots[t];
    const std::int32_t depth = v.depths[t];
    for (std::size_t i = 0; i < n; ++i) idx[i] = root;
    for (std::int32_t level = 0; level < depth; ++level) {
      std::int32_t changed = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t node = idx[i];
        const float threshold = v.threshold[node];
        const float value = rows[i][v.feature[node]];
        const std::int32_t next =
            v.left[node] +
            static_cast<std::int32_t>(static_cast<int>(!(value <= threshold)) &
                                      static_cast<int>(threshold < kInf));
        changed |= next ^ node;
        idx[i] = next;
      }
      if (changed == 0) break;  // every row parked on a leaf
    }
    for (std::size_t i = 0; i < n; ++i) {
      acc[i] += v.value[idx[i]];
    }
  }
  if (accumulate) {
    for (std::size_t i = 0; i < n; ++i) out[base_row + i] += acc[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) out[base_row + i] = acc[i];
  }
}

/// Chunk size for the row-block fan-out: the pool's deterministic default
/// grain rounded up to a whole number of blocks, so no chunk splits a block
/// below kRowBlock rows (short blocks lose the latency-hiding interleave).
/// A pure function of n — the block partition never depends on thread count.
std::size_t block_grain(std::size_t n) {
  const std::size_t g = ThreadPool::default_grain(n);
  return (g + kRowBlock - 1) / kRowBlock * kRowBlock;
}

}  // namespace

FlatEnsemble FlatEnsemble::build(std::span<const Tree> trees,
                                 double leaf_scale) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  FlatEnsemble flat;
  std::vector<std::pair<std::int32_t, std::int32_t>> order;  // (node, depth)
  for (const Tree& tree : trees) {
    const std::vector<TreeNode>& nodes = tree.nodes();
    const auto base = static_cast<std::int32_t>(flat.feature_.size());
    flat.roots_.push_back(base);
    if (nodes.empty()) {
      // Tree::predict returns 0.0 on an empty tree: one zero-valued leaf.
      flat.feature_.push_back(0);
      flat.threshold_.push_back(kInf);
      flat.left_.push_back(base);
      flat.value_.push_back(0.0);
      flat.depths_.push_back(0);
      continue;
    }
    // Level-order (BFS) remap with sibling pairs adjacent: when an internal
    // node is emitted at flat index base + k, its children are *appended* to
    // the visit order together, so they land at consecutive flat indices and
    // descent needs only left_ plus a 0/1 offset. Level order also packs the
    // hot top levels of the tree into adjacent cache lines.
    const auto count = static_cast<std::int32_t>(nodes.size());
    std::int32_t depth = 0;
    order.clear();
    order.push_back({0, 0});
    for (std::size_t k = 0; k < order.size(); ++k) {
      MEMFP_CHECK_LE(order.size(), nodes.size())
          << "flat ensemble: tree nodes form a cycle or shared subtree";
      const auto [orig, d] = order[k];
      const TreeNode& node = nodes[static_cast<std::size_t>(orig)];
      depth = std::max(depth, d);
      if (node.feature >= 0) {
        MEMFP_CHECK(node.left >= 0 && node.left < count && node.right >= 0 &&
                    node.right < count)
            << "flat ensemble: child index out of range in tree";
        // A NaN threshold would send every row left here but right in the
        // walker (`x <= NaN` is false); no trainer emits one, so reject it
        // rather than silently diverge.
        MEMFP_CHECK(!std::isnan(node.threshold))
            << "flat ensemble: NaN split threshold in tree";
        flat.feature_.push_back(node.feature);
        flat.threshold_.push_back(node.threshold);
        flat.left_.push_back(base + static_cast<std::int32_t>(order.size()));
        flat.value_.push_back(0.0);
        order.push_back({node.left, d + 1});
        order.push_back({node.right, d + 1});
      } else {
        // Leaf self-loop: left points back at the leaf and threshold +inf
        // keeps the right-offset at 0 for every float (`x <= +inf` is true,
        // and the NaN case is masked by `threshold < +inf` being false), so
        // extra levels are no-ops.
        flat.feature_.push_back(0);
        flat.threshold_.push_back(kInf);
        flat.left_.push_back(base + static_cast<std::int32_t>(k));
        flat.value_.push_back(leaf_scale * node.value);
      }
    }
    flat.depths_.push_back(depth);
    flat.max_depth_ = std::max(flat.max_depth_, static_cast<int>(depth));
  }
  flat.pack();
  return flat;
}

void FlatEnsemble::pack() {
  packed_.resize(feature_.size());
  for (std::size_t i = 0; i < feature_.size(); ++i) {
    const std::int64_t delta = static_cast<std::int64_t>(left_[i]) -
                               static_cast<std::int64_t>(i);
    // BFS order appends children after their parent, so deltas are >= 0
    // (leaves self-loop at 0); only a tree wider than 65535 nodes per level
    // span, or > 65535 features, fails to pack.
    if (delta < 0 || delta > 0xFFFF || feature_[i] > 0xFFFF) {
      packed_.clear();
      return;
    }
    std::uint32_t tbits;
    std::memcpy(&tbits, &threshold_[i], sizeof(tbits));
    packed_[i] = static_cast<std::uint64_t>(tbits) |
                 (static_cast<std::uint64_t>(feature_[i]) << 32) |
                 (static_cast<std::uint64_t>(delta) << 48);
  }
}

double FlatEnsemble::predict_row(std::span<const float> features,
                                 double init) const {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  double acc = init;
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    std::int32_t idx = roots_[t];
    const std::int32_t depth = depths_[t];
    for (std::int32_t level = 0; level < depth; ++level) {
      const auto node = static_cast<std::size_t>(idx);
      const float x = features[static_cast<std::size_t>(feature_[node])];
      const float t_node = threshold_[node];
      // Right offset: `!(x <= t)` matches the walker for every float incl.
      // NaN (NaN descends right); the `t < inf` mask keeps leaves parked.
      idx = left_[node] +
            static_cast<std::int32_t>(static_cast<int>(!(x <= t_node)) &
                                      static_cast<int>(t_node < kInf));
    }
    acc += value_[static_cast<std::size_t>(idx)];
  }
  return acc;
}

void FlatEnsemble::score(const Matrix& x, double init, bool accumulate,
                         std::span<double> out) const {
  MEMFP_CHECK_EQ(out.size(), x.rows());
  const NodeView v{feature_.data(), threshold_.data(), left_.data(),
                   value_.data(),   roots_.data(),     depths_.data(),
                   roots_.size()};
  double* scores = out.data();
  // SIMD path for full blocks: the kernel computes i32 row offsets as
  // i * cols + feature, so cap cols where 63 * cols + f could overflow.
  const simd::KernelTable& kt = simd::kernels();
  const bool use_simd = kt.flat_float_block != nullptr && !packed_.empty() &&
                        x.cols() < (std::size_t{1} << 25);
  ThreadPool::global().parallel_for_chunks(
      x.rows(),
      [&](std::size_t begin, std::size_t end) {
        const float* rows[kRowBlock];
        for (std::size_t bs = begin; bs < end; bs += kRowBlock) {
          const std::size_t n = std::min(kRowBlock, end - bs);
          if (use_simd && n == kRowBlock) {
            kt.flat_float_block(packed_.data(), value_.data(), roots_.data(),
                                depths_.data(), roots_.size(),
                                x.row(bs).data(), x.cols(), init, accumulate,
                                scores + bs);
            continue;
          }
          for (std::size_t i = 0; i < n; ++i) {
            rows[i] = x.row(bs + i).data();
          }
          score_block(v, rows, bs, n, init, accumulate, scores);
        }
      },
      block_grain(x.rows()));
}

void FlatEnsemble::predict(const Matrix& x, double init,
                           std::span<double> out) const {
  score(x, init, /*accumulate=*/false, out);
}

void FlatEnsemble::accumulate(const Matrix& x, std::span<double> out) const {
  score(x, 0.0, /*accumulate=*/true, out);
}

std::shared_ptr<const FlatEnsemble> LazyFlatEnsemble::get(
    std::span<const Tree> trees, double leaf_scale) const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->flat) {
    state_->flat = std::make_shared<const FlatEnsemble>(
        FlatEnsemble::build(trees, leaf_scale));
  }
  return state_->flat;
}

void LazyFlatEnsemble::invalidate() {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  state_->flat.reset();
}

}  // namespace memfp::ml
