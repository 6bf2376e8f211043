// The scalar reference lane: portable C++ with no vector arithmetic. Every
// other lane must reproduce these results bit for bit (MEMFP_SIMD=scalar
// is the ctest leg check.sh pins); the bodies are the original inner loops
// the dispatch layer lifted out of decision_tree.cc / binning.cc /
// tensor.cc / histogram.cc, unchanged in IEEE op order.
#include <algorithm>
#include <cstring>
#include <limits>

#include "common/simd_kernels.h"

namespace memfp::simd {
namespace {

void hist_rowmajor_scalar(const std::uint32_t* rows, std::size_t n,
                          const double* wp, const std::uint8_t* row_codes,
                          std::size_t features, double* hist,
                          const std::uint32_t* offset) {
  // Row-outer iteration; equivalent to the historical feature-outer loop
  // bit for bit because every (feature, bin) accumulator still sees its
  // adds in row order — per row, the touched slots are disjoint.
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(rows[i]);
    const double w0 = wp[2 * r];
    const double w1 = wp[2 * r + 1];
    const std::uint8_t* c = row_codes + r * features;
    for (std::size_t f = 0; f < features; ++f) {
      double* slot = hist + 2 * (offset[f] + c[f]);
      slot[0] += w0;
      slot[1] += w1;
    }
  }
}

void hist_column_scalar(const std::uint32_t* rows, std::size_t n,
                        const double* gh, const std::uint8_t* codes,
                        double* hist) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(rows[i]);
    const std::size_t code = codes[r];
    hist[2 * code] += gh[2 * r];
    hist[2 * code + 1] += gh[2 * r + 1];
  }
}

void hist_subtract_scalar(double* out, const double* parent,
                          const double* sibling, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = parent[i] - sibling[i];
}

void pair_sum_scalar(const std::uint32_t* rows, std::size_t n,
                     const double* wp, double* a, double* b) {
  double sa = 0.0, sb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(rows[i]);
    sa += wp[2 * r];
    sb += wp[2 * r + 1];
  }
  *a = sa;
  *b = sb;
}

double gini_impurity(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p) * total;
}

void gini_gain_scan_scalar(const double* left_total, const double* left_pos,
                           int count, double total, double pos,
                           double parent_impurity, double min_samples_leaf,
                           double* gains) {
  for (int b = 0; b < count; ++b) {
    const double lt = left_total[b];
    const double lp = left_pos[b];
    const double rt = total - lt;
    const double rp = pos - lp;
    if (lt < min_samples_leaf || rt < min_samples_leaf) {
      gains[b] = -std::numeric_limits<double>::infinity();
      continue;
    }
    gains[b] =
        parent_impurity - gini_impurity(lp, lt) - gini_impurity(rp, rt);
  }
}

std::size_t partition_scalar(std::uint32_t* rows, std::size_t n,
                             const std::uint8_t* codes, std::uint8_t bin,
                             std::uint32_t* scratch, std::size_t /*guard*/) {
  std::size_t write = 0;
  std::size_t right = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = rows[i];
    if (codes[r] <= bin) {
      rows[write++] = r;
    } else {
      scratch[right++] = r;
    }
  }
  std::memcpy(rows + write, scratch, right * sizeof(std::uint32_t));
  return write;
}

void bin_transform_scalar(const float* column, std::size_t n,
                          const float* thresholds, int count,
                          std::uint8_t* codes) {
  const float* end = thresholds + count;
  for (std::size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<std::uint8_t>(
        std::lower_bound(thresholds, end, column[i]) - thresholds);
  }
}

void gemm_scalar(const float* a, const float* b, float* out, std::size_t m,
                 std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    float* out_row = out + i * n;
    const float* a_row = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a_row[p];
      const float* b_row = b + p * n;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        out_row[j] += av * b_row[j];
        out_row[j + 1] += av * b_row[j + 1];
        out_row[j + 2] += av * b_row[j + 2];
        out_row[j + 3] += av * b_row[j + 3];
      }
      for (; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

void gemm_at_scalar(const float* a, const float* b, float* out, std::size_t m,
                    std::size_t k, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      float* out_row = out + i * n;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        out_row[j] += av * b_row[j];
        out_row[j + 1] += av * b_row[j + 1];
        out_row[j + 2] += av * b_row[j + 2];
        out_row[j + 3] += av * b_row[j + 3];
      }
      for (; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

void gemm_bt_scalar(const float* a, const float* b, float* out, std::size_t m,
                    std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* out_row = out + i * n;
    // Four independent dot products per step, each with its own sequential
    // accumulation over k (bit-identical per output element).
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = a_row[p];
        acc0 += av * b0[p];
        acc1 += av * b1[p];
        acc2 += av * b2[p];
        acc3 += av * b3[p];
      }
      out_row[j] += acc0;
      out_row[j + 1] += acc1;
      out_row[j + 2] += acc2;
      out_row[j + 3] += acc3;
    }
    for (; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      out_row[j] += acc;
    }
  }
}

const KernelTable kScalarTable = {
    Level::kScalar,
    hist_rowmajor_scalar,
    hist_column_scalar,
    hist_subtract_scalar,
    pair_sum_scalar,
    gini_gain_scan_scalar,
    partition_scalar,
    bin_transform_scalar,
    gemm_scalar,
    gemm_at_scalar,
    gemm_bt_scalar,
    /*flat_float_block=*/nullptr,
};

}  // namespace

const KernelTable* scalar_table() { return &kScalarTable; }

}  // namespace memfp::simd
