// AVX-512 lane: generic bodies at 512 bits plus the two gather/mask
// kernels that need real intrinsics — the flat-ensemble block descent and
// the compress-store partition. Compiled with
// -mavx512f -mavx512dq -mavx512bw -mavx512vl -ffp-contract=off when the
// compiler supports them (src/common/CMakeLists.txt); the stub at the
// bottom reports the lane unavailable otherwise.
#include "common/simd_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__x86_64__)

#include <immintrin.h>

// GCC's unmasked gather intrinsics initialize their pass-through operand
// with itself (`__m512i __Y = __Y;`), tripping -Wmaybe-uninitialized at -O2
// even though the all-ones mask overwrites every lane. Silence it TU-wide.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <cstring>
#include <limits>
#include <vector>

#include "common/simd_kernels_generic.h"

namespace memfp::simd {
namespace {

void gemm_bt_avx512(const float* a, const float* b, float* out, std::size_t m,
                    std::size_t k, std::size_t n) {
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  generic::gemm_bt<16>(a, b, out, m, k, n, bt.data());
}

/// Stable two-sided partition via compress-store, 16 rows per step. The
/// uint8 codes are fetched with 4-byte gathers, so a row r needs r + 4 <=
/// guard bytes readable from `codes`; any 16-row step whose max row trips
/// that (only possible for the dataset's last feature column, and only for
/// the top three row indices) is classified scalar in place, preserving
/// stability either way.
std::size_t partition_avx512(std::uint32_t* rows, std::size_t n,
                             const std::uint8_t* codes, std::uint8_t bin,
                             std::uint32_t* scratch, std::size_t guard) {
  std::size_t write = 0;
  std::size_t right = 0;
  std::size_t i = 0;
  const __m512i vbin = _mm512_set1_epi32(bin);
  const __m512i mask_ff = _mm512_set1_epi32(0xFF);
  for (; i + 16 <= n; i += 16) {
    const __m512i r = _mm512_loadu_si512(rows + i);
    if (static_cast<std::size_t>(_mm512_reduce_max_epu32(r)) + 4 > guard) {
      for (std::size_t j = i; j < i + 16; ++j) {
        const std::uint32_t row = rows[j];
        if (codes[row] <= bin) {
          rows[write++] = row;
        } else {
          scratch[right++] = row;
        }
      }
      continue;
    }
    const __m512i raw = _mm512_i32gather_epi32(r, codes, 1);
    const __m512i c = _mm512_and_si512(raw, mask_ff);
    const __mmask16 left = _mm512_cmple_epu32_mask(c, vbin);
    _mm512_mask_compressstoreu_epi32(rows + write, left, r);
    write += static_cast<std::size_t>(__builtin_popcount(left));
    _mm512_mask_compressstoreu_epi32(scratch + right,
                                     static_cast<__mmask16>(~left), r);
    right += static_cast<std::size_t>(
        __builtin_popcount(static_cast<std::uint16_t>(~left)));
  }
  for (; i < n; ++i) {
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

/// Issues the two 8-lane uint64 node-word gathers for every group before
/// any dependent unpack work: eight independent gathers in flight per tree
/// level is what hides the node-load latency (folding the gather into the
/// per-group unpack serializes them and costs ~2x).
inline void gather_node_halves(const __m512i idx[4], const std::uint64_t* nodes,
                               __m512i m0[4], __m512i m1[4]) {
  for (int g = 0; g < 4; ++g) {
    m0[g] = _mm512_i32gather_epi64(_mm512_castsi512_si256(idx[g]), nodes, 8);
    m1[g] = _mm512_i32gather_epi64(_mm512_extracti64x4_epi64(idx[g], 1),
                                   nodes, 8);
  }
}

/// Re-packs one group's gathered halves into 16-lane words: lo = the low 32
/// bits of each node (threshold bits), hi = feature | delta << 16.
struct NodeWords {
  __m512i lo;
  __m512i hi;
};

inline NodeWords unpack_node_words(__m512i m0, __m512i m1) {
  NodeWords w;
  w.lo = _mm512_inserti64x4(
      _mm512_castsi256_si512(_mm512_cvtepi64_epi32(m0)),
      _mm512_cvtepi64_epi32(m1), 1);
  w.hi = _mm512_inserti64x4(
      _mm512_castsi256_si512(
          _mm512_cvtepi64_epi32(_mm512_srli_epi64(m0, 32))),
      _mm512_cvtepi64_epi32(_mm512_srli_epi64(m1, 32)), 1);
  return w;
}

/// 64 rows as 4 interleaved groups of 16 descent chains per tree level: the
/// 8 gathers of one level overlap instead of serializing into a dependent
/// load chain. Descent math is identical to the scalar block loop — next =
/// left + (!(x <= t) & (t < inf)), leaves self-loop — and the per-level
/// `moved` fold gives the same early exit, so leaf selection is exact.
void flat_float_block_avx512(const std::uint64_t* nodes, const double* values,
                             const std::int32_t* roots,
                             const std::int32_t* depths, std::size_t trees,
                             const float* x_block, std::size_t cols,
                             double init, bool accumulate, double* out_block) {
  const __m512 inf = _mm512_set1_ps(std::numeric_limits<float>::infinity());
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i maskf = _mm512_set1_epi32(0xFFFF);
  alignas(64) std::int32_t rowoff[64];
  for (int i = 0; i < 64; ++i) {
    rowoff[i] = static_cast<std::int32_t>(static_cast<std::size_t>(i) * cols);
  }
  __m512i ro[4];
  __m512d acc[8];
  for (int g = 0; g < 4; ++g) ro[g] = _mm512_load_si512(rowoff + 16 * g);
  const __m512d acc0 = _mm512_set1_pd(accumulate ? 0.0 : init);
  for (int g = 0; g < 8; ++g) acc[g] = acc0;
  for (std::size_t t = 0; t < trees; ++t) {
    const std::int32_t depth = depths[t];
    __m512i idx[4];
    idx[0] = idx[1] = idx[2] = idx[3] = _mm512_set1_epi32(roots[t]);
    for (std::int32_t level = 0; level < depth; ++level) {
      __m512i m0[4], m1[4];
      gather_node_halves(idx, nodes, m0, m1);
      __mmask16 moved = 0;
      for (int g = 0; g < 4; ++g) {
        const NodeWords w = unpack_node_words(m0[g], m1[g]);
        const __m512 thr = _mm512_castsi512_ps(w.lo);
        const __m512i f = _mm512_and_si512(w.hi, maskf);
        const __m512i delta = _mm512_srli_epi32(w.hi, 16);
        const __m512 xv =
            _mm512_i32gather_ps(_mm512_add_epi32(ro[g], f), x_block, 4);
        // Right iff !(x <= t) and t < inf: _CMP_NLE_UQ sends NaN features
        // right (as the walker does) and the inf mask parks leaves.
        const __mmask16 m = _mm512_cmp_ps_mask(xv, thr, _CMP_NLE_UQ) &
                            _mm512_cmp_ps_mask(thr, inf, _CMP_LT_OQ);
        const __m512i left = _mm512_add_epi32(idx[g], delta);
        const __m512i next = _mm512_mask_add_epi32(left, m, left, one);
        moved |= _mm512_cmpneq_epi32_mask(next, idx[g]);
        idx[g] = next;
      }
      if (moved == 0) break;  // every chain parked on a leaf
    }
    for (int g = 0; g < 4; ++g) {
      acc[2 * g] = _mm512_add_pd(
          acc[2 * g],
          _mm512_i32gather_pd(_mm512_castsi512_si256(idx[g]), values, 8));
      acc[2 * g + 1] = _mm512_add_pd(
          acc[2 * g + 1],
          _mm512_i32gather_pd(_mm512_extracti64x4_epi64(idx[g], 1), values,
                              8));
    }
  }
  if (accumulate) {
    for (int g = 0; g < 8; ++g) {
      _mm512_storeu_pd(out_block + 8 * g,
                       _mm512_add_pd(_mm512_loadu_pd(out_block + 8 * g),
                                     acc[g]));
    }
  } else {
    for (int g = 0; g < 8; ++g) _mm512_storeu_pd(out_block + 8 * g, acc[g]);
  }
}

const KernelTable kAvx512Table = {
    Level::kAvx512,
    generic::hist_rowmajor,
    generic::hist_column,
    generic::hist_subtract<8>,
    generic::pair_sum,
    generic::gini_gain_scan<8>,
    partition_avx512,
    generic::bin_transform<16>,
    generic::gemm<16>,
    generic::gemm_at<16>,
    gemm_bt_avx512,
    flat_float_block_avx512,
};

}  // namespace

const KernelTable* avx512_table() { return &kAvx512Table; }

}  // namespace memfp::simd

#else  // missing AVX-512 flags or not x86-64

namespace memfp::simd {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace memfp::simd

#endif
