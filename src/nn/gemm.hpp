#pragma once
// Small dense float GEMM kernels shared by the matmul / conv / complex ops.
// Loop orders are chosen so the innermost loop streams rows of the second
// operand.  The dense entry, gemm_dense, hands 4-row panels to the SIMD
// layer's register-blocked `gemm_panel` (common/simd.hpp), whose arms are
// bit-identical to the scalar loop — lanes span B-row columns of one fixed
// A entry, never the k reduction, so every output element keeps its exact
// left-fold order (DESIGN.md §13.2).  It reads A through a (row, p) stride
// pair, so one kernel serves row-major A, transposed A and one plane of an
// interleaved complex tensor read in place.
//
// gemm_nn / gemm_tn keep the `av == 0.0f` fast path that skips a whole
// B-row when the left-hand entry is zero.  It pays off when the left
// operand is ReLU-sparse (conv backward, image baselines) and costs a
// branch per k otherwise; those variants stay scalar — the branch
// dominates — and the CMLP's complex layers call gemm_dense (bench_micro
// BM_Gemm* measures both).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace nitho::nn {

/// Work threshold (multiply-accumulates) above which a GEMM splits its rows
/// across the shared pool; below it dispatch overhead dominates.  Shared by
/// every kernel in this header.
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

/// C[M,N] (+)= A[M,K] * B[K,N], skipping B rows whose A entry is zero.
inline void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k,
                    const float* a, const float* b, float* c,
                    bool accumulate) {
  const auto row_job = [&](std::int64_t i) {
    float* crow = c + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    const float* arow = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  };
  if (m * n * k > kGemmParallelMacs) {
    parallel_for(m, row_job);
  } else {
    for (std::int64_t i = 0; i < m; ++i) row_job(i);
  }
}

namespace detail {

/// Packed-B^T threshold: below this many MACs the transpose costs more than
/// the vector arms win back, and the B^T scratch is capped so a pathological
/// (n, k) cannot pin a huge thread-local buffer.
inline constexpr std::int64_t kGemmNtPackMacs = std::int64_t{1} << 13;
inline constexpr std::int64_t kGemmNtPackCap = std::int64_t{1} << 22;

}  // namespace detail

/// C[M,N] (+)= A[M,K] * B[N,K]^T  (no zero-skip: the dot-product loop order
/// cannot skip B work per left-hand zero.)
///
/// When a vector arm is active and the problem is big enough, B is packed
/// as B^T once so every row update becomes the gemm_dense panel stream.  Bit
/// identity is preserved: each output element is still the same left fold
/// over p from 0.0f (the packed path just keeps n folds in flight instead
/// of one), and with accumulate the fold lands in a scratch row that is
/// added to C in a single += — the same one add the scalar path does.
inline void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                    const float* a, const float* b, float* c,
                    bool accumulate) {
  const bool pack = simd::active_arm() != simd::Arm::kScalar && m >= 2 &&
                    m * n * k >= detail::kGemmNtPackMacs &&
                    n * k <= detail::kGemmNtPackCap;
  if (pack) {
    // Grow-only scratch; the caller blocks for the whole parallel_for, so
    // the pack is stable while worker threads stream it.
    thread_local std::vector<float> bt_buf;
    if (static_cast<std::int64_t>(bt_buf.size()) < n * k) {
      bt_buf.resize(static_cast<std::size_t>(n * k));
    }
    float* bt = bt_buf.data();
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      for (std::int64_t p = 0; p < k; ++p) bt[p * n + j] = brow[p];
    }
    const std::int64_t blocks =
        (m + simd::kGemmPanelRows - 1) / simd::kGemmPanelRows;
    const auto block_job = [&, bt](std::int64_t blk) {
      const std::int64_t i0 = blk * simd::kGemmPanelRows;
      const std::int64_t mr = std::min(simd::kGemmPanelRows, m - i0);
      float* cblk = c + i0 * n;
      float* dst = cblk;
      thread_local std::vector<float> tmp_buf;
      if (accumulate) {
        const std::int64_t need = simd::kGemmPanelRows * n;
        if (static_cast<std::int64_t>(tmp_buf.size()) < need) {
          tmp_buf.resize(static_cast<std::size_t>(need));
        }
        dst = tmp_buf.data();
      }
      std::fill(dst, dst + mr * n, 0.0f);
      simd::gemm_panel(dst, n, a + i0 * k, k, 1, bt, n, mr, k, n);
      if (accumulate) {
        for (std::int64_t r = 0; r < mr; ++r) {
          simd::add_inplace(cblk + r * n, dst + r * n, n);
        }
      }
    };
    if (m * n * k > kGemmParallelMacs) {
      parallel_for(blocks, block_job);
    } else {
      for (std::int64_t blk = 0; blk < blocks; ++blk) block_job(blk);
    }
    return;
  }
  const auto row_job = [&](std::int64_t i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    // accumulate is loop-invariant; branch once per row, not per element.
    if (accumulate) {
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] += acc;
      }
    } else {
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] = acc;
      }
    }
  };
  if (m * n * k > kGemmParallelMacs) {
    parallel_for(m, row_job);
  } else {
    for (std::int64_t i = 0; i < m; ++i) row_job(i);
  }
}

/// C[M,N] (+)= A[K,M]^T * B[K,N], skipping B rows whose A entry is zero.
inline void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k,
                    const float* a, const float* b, float* c,
                    bool accumulate) {
  // Serial over k to keep writes race-free; rows of C parallelized.
  const auto row_job = [&](std::int64_t i) {
    float* crow = c + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[p * m + i];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  };
  if (m * n * k > kGemmParallelMacs) {
    parallel_for(m, row_job);
  } else {
    for (std::int64_t i = 0; i < m; ++i) row_job(i);
  }
}

}  // namespace nitho::nn
