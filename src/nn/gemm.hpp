#pragma once
// The one dense float GEMM: every matrix product in the library (the
// CMLP's clinear layers, the image baselines' conv2d) runs through
// gemm_dense.  It hands 4-row panels to the SIMD layer's register-blocked
// `gemm_panel` (common/simd.hpp), whose arms are bit-identical to the
// scalar loop — lanes span B-row columns of one fixed A entry, never the k
// reduction, so every output element keeps its exact left-fold order
// (DESIGN.md §13.2).  It reads A through a (row, p) stride pair, so one
// kernel serves row-major A, transposed A and one plane of an interleaved
// complex tensor read in place.  There is no zero-skip: skipping `a == 0`
// terms measured a wash or a loss even on ReLU-sparse operands, and it
// would hide a NaN or Inf in B behind a zero in A.

#include <algorithm>
#include <cstdint>

#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace nitho::nn {

/// Work threshold (multiply-accumulates) above which gemm_dense splits its
/// rows across the shared pool; below it dispatch overhead dominates.
inline constexpr std::int64_t kGemmParallelMacs = std::int64_t{1} << 18;

/// C[M,N] (+)= A * B[K,N] with A's element (i, p) at a[i * ars + p * aps]
/// and B, C rows ldb, ldc floats apart: (ars, aps) = (k, 1) reads a
/// row-major A[M,K], (1, m) the transpose of a row-major [K,M], and
/// (2k, 2) / (2, 2m) one plane of an interleaved complex [M,K,2] / [K,M,2]
/// tensor in place.  Each output element is one left fold over p — from
/// 0.0f, or from C's value with accumulate — so a GEMM over B's columns
/// [0, n) gives every element the bits it gets in a GEMM over any column
/// range that contains it.  Rows split across the shared pool above
/// kGemmParallelMacs in 4-row panels, so the result is the same at every
/// worker count.
inline void gemm_dense(std::int64_t m, std::int64_t n, std::int64_t k,
                       const float* a, std::int64_t ars, std::int64_t aps,
                       const float* b, std::int64_t ldb, float* c,
                       std::int64_t ldc, bool accumulate) {
  const std::int64_t blocks =
      (m + simd::kGemmPanelRows - 1) / simd::kGemmPanelRows;
  const auto block_job = [&](std::int64_t blk) {
    const std::int64_t i0 = blk * simd::kGemmPanelRows;
    const std::int64_t mr = std::min(simd::kGemmPanelRows, m - i0);
    float* cblk = c + i0 * ldc;
    if (!accumulate) {
      for (std::int64_t r = 0; r < mr; ++r) {
        std::fill(cblk + r * ldc, cblk + r * ldc + n, 0.0f);
      }
    }
    simd::gemm_panel(cblk, ldc, a + i0 * ars, ars, aps, b, ldb, mr, k, n);
  };
  if (m * n * k > kGemmParallelMacs) {
    parallel_for(blocks, block_job);
  } else {
    for (std::int64_t blk = 0; blk < blocks; ++blk) block_job(blk);
  }
}

}  // namespace nitho::nn
