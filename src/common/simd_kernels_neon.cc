// NEON lane (aarch64): the width-generic kernel bodies at 128 bits
// (2 doubles / 4 floats) — NEON is baseline on aarch64, so no extra -m
// flags; the TU still gets -ffp-contract=off because aarch64 GCC defaults
// to contract=fast, which would fuse mul+add the scalar lane keeps
// separate. The flat-ensemble descents and the compress-store partition
// need AVX-512-style gathers, so callers keep their scalar fallbacks.
#include "common/simd_kernels.h"

#if defined(__aarch64__)

#include <vector>

#include "common/simd_kernels_generic.h"

namespace memfp::simd {
namespace {

void gemm_bt_neon(const float* a, const float* b, float* out, std::size_t m,
                  std::size_t k, std::size_t n) {
  thread_local std::vector<float> bt;
  bt.resize(k * n);
  generic::gemm_bt<4>(a, b, out, m, k, n, bt.data());
}

const KernelTable kNeonTable = {
    Level::kNeon,
    generic::hist_rowmajor,
    generic::hist_column,
    generic::hist_subtract<2>,
    generic::pair_sum,
    generic::gini_gain_scan<2>,
    /*partition=*/nullptr,
    generic::bin_transform<4>,
    generic::gemm<4>,
    generic::gemm_at<4>,
    gemm_bt_neon,
    /*flat_float_block=*/nullptr,
};

}  // namespace

const KernelTable* neon_table() { return &kNeonTable; }

}  // namespace memfp::simd

#else  // !__aarch64__

namespace memfp::simd {
const KernelTable* neon_table() { return nullptr; }
}  // namespace memfp::simd

#endif
