// Internal: width-generic kernel bodies shared by the AVX2/AVX-512/NEON
// lane TUs. Every template here is instantiated at the including TU's
// native lane count and compiles to that TU's -m instruction set — nothing
// outside src/common/simd_kernels_*.cc may include this header (the
// vector-extension arithmetic would silently compile to baseline
// instructions, or trip -Wpsabi, in an unflagged TU).
//
// Exactness notes (the scalar lane in simd_kernels_scalar.cc is the
// reference for all of these):
//  * Pair kernels (pair_sum, hist_*) use one two-double vector add per
//    (a, b) pair: the two lanes are independent IEEE adds, so each
//    accumulator's chain is bit-identical to the scalar lane's, in the same
//    row order.
//  * gain_scan / gemm keep the scalar expression's per-element op order and
//    rely on the TU being compiled with -ffp-contract=off, so mul + add
//    never fuses into an FMA the scalar lane doesn't have.
//  * bin_transform produces integers from comparisons — the lane only
//    changes how many elements are classified per iteration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/simd.h"

namespace memfp::simd::generic {

using f64x2 = VecT<double, 2>;

/// (a, b) += (wp[2r], wp[2r + 1]) in row order: one two-lane add chain.
inline void pair_sum(const std::uint32_t* rows, std::size_t n,
                     const double* wp, double* a, double* b) {
  f64x2 acc{};
  for (std::size_t i = 0; i < n; ++i) {
    acc += vload<f64x2>(wp + 2 * static_cast<std::size_t>(rows[i]));
  }
  *a = acc[0];
  *b = acc[1];
}

inline void pair_add(double* slot, f64x2 w) {
  vstore(slot, vload<f64x2>(slot) + w);
}

/// Row-major classification histogram: one wp pair load per row feeds every
/// feature's accumulator; per-(feature, bin) adds stay in row order because
/// each row's feature slots are disjoint.
inline void hist_rowmajor(const std::uint32_t* rows, std::size_t n,
                          const double* wp, const std::uint8_t* row_codes,
                          std::size_t features, double* hist,
                          const std::uint32_t* offset) {
  for (std::size_t i = 0; i < n; ++i) {
    // The row indices land a few cache lines apart (bootstrap subsets);
    // prefetching a later row's code run and weight pair hides the miss
    // behind the current row's accumulator chains.
    if (i + 4 < n) {
      const auto ahead = static_cast<std::size_t>(rows[i + 4]);
      __builtin_prefetch(row_codes + ahead * features);
      __builtin_prefetch(wp + 2 * ahead);
    }
    const auto r = static_cast<std::size_t>(rows[i]);
    const f64x2 w = vload<f64x2>(wp + 2 * r);
    const std::uint8_t* c = row_codes + r * features;
    std::size_t f = 0;
    // Four independent add/store chains per step hide the load-add-store
    // latency; the chains never alias (distinct features).
    for (; f + 4 <= features; f += 4) {
      pair_add(hist + 2 * (offset[f] + c[f]), w);
      pair_add(hist + 2 * (offset[f + 1] + c[f + 1]), w);
      pair_add(hist + 2 * (offset[f + 2] + c[f + 2]), w);
      pair_add(hist + 2 * (offset[f + 3] + c[f + 3]), w);
    }
    for (; f < features; ++f) {
      pair_add(hist + 2 * (offset[f] + c[f]), w);
    }
  }
}

/// One-column gradient histogram: hist[2 * codes[r]] += (gh[2r], gh[2r+1]).
inline void hist_column(const std::uint32_t* rows, std::size_t n,
                        const double* gh, const std::uint8_t* codes,
                        double* hist) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(rows[i]);
    pair_add(hist + 2 * codes[r], vload<f64x2>(gh + 2 * r));
  }
}

template <int W>
void hist_subtract(double* out, const double* parent, const double* sibling,
                   std::size_t n) {
  using VD = VecT<double, W>;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    vstore(out + i, vload<VD>(parent + i) - vload<VD>(sibling + i));
  }
  for (; i < n; ++i) out[i] = parent[i] - sibling[i];
}

/// Weighted-gini gains, W candidate bins per iteration. Per lane this is
/// exactly the scalar lane's expression tree: gini(p, t) = ((2*p)*(1-p))*t
/// guarded by t > 0, gain = (parent - gini_l) - gini_r, -inf when a side
/// fails min_samples_leaf. The division guard blends 1.0 into zero totals
/// so no lane divides by zero; its result is masked off.
template <int W>
void gini_gain_scan(const double* left_total, const double* left_pos,
                    int count, double total, double pos,
                    double parent_impurity, double min_samples_leaf,
                    double* gains) {
  using VD = VecT<double, W>;
  using VM = VecT<long long, W>;  // comparison result / lane-select mask
  const VD vtotal = vsplat<VD>(total);
  const VD vpos = vsplat<VD>(pos);
  const VD vmsl = vsplat<VD>(min_samples_leaf);
  const VD vparent = vsplat<VD>(parent_impurity);
  const VD one = vsplat<VD>(1.0);
  const VD two = vsplat<VD>(2.0);
  const VD zero{};
  const VD ninf = vsplat<VD>(-std::numeric_limits<double>::infinity());
  // Full-width vectors only: the caller pads the arrays to a multiple of
  // kGainScanPad slots (zeros past count), so the last block never needs a
  // scalar tail — with count = 47 (the default 48-bin mapper) a tail would
  // re-pay two divisions per straggler bin on every feature scan.
  for (int b = 0; b < count; b += W) {
    const VD lt = vload<VD>(left_total + b);
    const VD lp = vload<VD>(left_pos + b);
    const VD rt = vtotal - lt;
    const VD rp = vpos - lp;
    const VM ok = (lt >= vmsl) & (rt >= vmsl);
    const VM lpos_ok = lt > zero;
    const VM rpos_ok = rt > zero;
    const VD lt_safe = lpos_ok ? lt : one;
    const VD rt_safe = rpos_ok ? rt : one;
    const VD pl = lp / lt_safe;
    const VD pr = rp / rt_safe;
    const VD gil = lpos_ok ? ((two * pl) * (one - pl)) * lt : zero;
    const VD gir = rpos_ok ? ((two * pr) * (one - pr)) * rt : zero;
    const VD gain = (vparent - gil) - gir;
    vstore(gains + b, ok ? gain : ninf);
  }
}

/// codes[i] = #thresholds < column[i], counted W values at a time: each
/// ascending threshold contributes 0/1 per lane (vector compares are
/// 0 / -1, so subtracting accumulates the count). Equals the scalar
/// lower_bound index, NaN included (every compare false -> 0).
template <int W>
void bin_transform(const float* column, std::size_t n,
                   const float* thresholds, int count, std::uint8_t* codes) {
  using VF = VecT<float, W>;
  using VI = VecT<int, W>;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF v = vload<VF>(column + i);
    VI cnt{};
    for (int t = 0; t < count; ++t) {
      cnt -= (vsplat<VF>(thresholds[t]) < v);
    }
    for (int l = 0; l < W; ++l) {
      codes[i + static_cast<std::size_t>(l)] =
          static_cast<std::uint8_t>(cnt[l]);
    }
  }
  for (; i < n; ++i) {
    int cnt = 0;
    for (int t = 0; t < count; ++t) cnt += thresholds[t] < column[i];
    codes[i] = static_cast<std::uint8_t>(cnt);
  }
}

/// out += a * b, ikj order, W output columns per step. Per element the op
/// sequence is load, mul, add, store for each p in order — the scalar
/// kernel's exact chain (no FMA: the TU is built with -ffp-contract=off).
template <int W>
void gemm(const float* a, const float* b, float* out, std::size_t m,
          std::size_t k, std::size_t n) {
  using VF = VecT<float, W>;
  for (std::size_t i = 0; i < m; ++i) {
    float* out_row = out + i * n;
    const float* a_row = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a_row[p];
      const float* b_row = b + p * n;
      const VF vav = vsplat<VF>(av);
      std::size_t j = 0;
      for (; j + W <= n; j += W) {
        vstore(out_row + j, vload<VF>(out_row + j) + vav * vload<VF>(b_row + j));
      }
      for (; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

/// out += a^T * b (a stored k x m): same inner update, pkj order.
template <int W>
void gemm_at(const float* a, const float* b, float* out, std::size_t m,
             std::size_t k, std::size_t n) {
  using VF = VecT<float, W>;
  for (std::size_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      float* out_row = out + i * n;
      const VF vav = vsplat<VF>(av);
      std::size_t j = 0;
      for (; j + W <= n; j += W) {
        vstore(out_row + j, vload<VF>(out_row + j) + vav * vload<VF>(b_row + j));
      }
      for (; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

/// out += a * b^T (b stored n x k). b is transposed once into a scratch
/// (k x n) so the inner loop reads W contiguous columns; each output
/// element still accumulates its own dot product over p in order, starting
/// from 0.0f and added into out at the end — bit-identical to the scalar
/// kernel's four-accumulator shape.
template <int W>
void gemm_bt(const float* a, const float* b, float* out, std::size_t m,
             std::size_t k, std::size_t n, float* bt /* k * n scratch */) {
  using VF = VecT<float, W>;
  for (std::size_t j = 0; j < n; ++j) {
    const float* b_row = b + j * k;
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b_row[p];
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* out_row = out + i * n;
    std::size_t j = 0;
    for (; j + W <= n; j += W) {
      VF acc{};
      for (std::size_t p = 0; p < k; ++p) {
        acc += vsplat<VF>(a_row[p]) * vload<VF>(bt + p * n + j);
      }
      vstore(out_row + j, vload<VF>(out_row + j) + acc);
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      const float* b_row = b + j * k;
      for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      out_row[j] += acc;
    }
  }
}

}  // namespace memfp::simd::generic
