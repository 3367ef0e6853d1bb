#pragma once
// Scalar reference GEMMs for the test oracles: the library's historical
// gemm_nn / gemm_tn / gemm_nt loops, serial and without SIMD.  gemm_nn and
// gemm_tn keep the `av == 0.0f` skip of a whole B row; gemm_nt is the
// per-element dot product.  Each output element is one left fold over p in
// ascending order — from 0.0f, or from C's value with accumulate (gemm_nt
// folds from 0.0f and adds the dot product once).  Do not "fix" or
// modernize them: the oracles built on them preserve the historical
// arithmetic.  No library code calls them.

#include <algorithm>
#include <cstdint>

namespace nitho::test {

/// C[M,N] (+)= A[M,K] * B[K,N], skipping B rows whose A entry is zero.
inline void gemm_nn(std::int64_t m, std::int64_t n, std::int64_t k,
                    const float* a, const float* b, float* c,
                    bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    const float* arow = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C[M,N] (+)= A[M,K] * B[N,K]^T.
inline void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                    const float* a, const float* b, float* c,
                    bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

/// C[M,N] (+)= A[K,M]^T * B[K,N], skipping B rows whose A entry is zero.
inline void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k,
                    const float* a, const float* b, float* c,
                    bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[p * m + i];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace nitho::test
