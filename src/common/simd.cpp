#include "common/simd.hpp"

#include <atomic>
#include <cmath>

// Arm availability is decided at compile time per arm and at runtime per
// process (DESIGN.md §13.1).  SSE2 is part of the x86-64 baseline so its
// arm compiles with the default flags; the AVX2 arm is compiled with a
// per-function target attribute and only ever *called* after CPUID says the
// instructions exist.  Neither arm uses FMA: contraction rounds differently
// from the scalar arms and would break the bit-identity protocol.
#if !defined(NITHO_NO_SIMD) && defined(__x86_64__) && defined(__GNUC__)
#define NITHO_SIMD_X86 1
#include <immintrin.h>
#else
#define NITHO_SIMD_X86 0
#endif

namespace nitho::simd {
namespace {

Arm detect() {
#if NITHO_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Arm::kAvx2;
  return Arm::kSse2;
#else
  return Arm::kScalar;
#endif
}

std::atomic<int>& arm_slot() {
  static std::atomic<int> slot{static_cast<int>(detect())};
  return slot;
}

inline Arm current() {
  return static_cast<Arm>(arm_slot().load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Scalar arms.  These ARE the reference semantics: every expression below
// is the verbatim hot-loop arithmetic the call sites used before the SIMD
// layer existed, and the vector arms replicate it lane by lane.
// ---------------------------------------------------------------------------

// The complex product every arm computes: (ar*br - ai*bi, ar*bi + ai*br).
// Written out because std::complex's operator* recovers infinities from a
// NaN-NaN product (C Annex G, __muldc3), which no vector lane does; for
// finite operands the two are the same bits.
template <typename C>
inline C cmul_ref(const C& a, const C& b) {
  return C(a.real() * b.real() - a.imag() * b.imag(),
           a.real() * b.imag() + a.imag() * b.real());
}

template <typename C>
void cmul_scalar(C* dst, const C* a, const C* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = cmul_ref(a[i], b[i]);
}

void abs2_accum_scalar(float* acc, const float* e, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    acc[i] += e[2 * i] * e[2 * i] + e[2 * i + 1] * e[2 * i + 1];
  }
}

void adam_update_scalar(float* p, float* m, float* v, const float* g,
                        std::int64_t n, float beta1, float beta2, float bc1,
                        float bc2, float lr, float eps) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float gi = g[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void gemm_panel_scalar(float* c, std::int64_t ldc, const float* a,
                       std::int64_t ars, std::int64_t aps, const float* b,
                       std::int64_t ldb, std::int64_t mr, std::int64_t k,
                       std::int64_t n) {
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* ar = a + r * ars;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = ar[p * aps];
      const float* brow = b + p * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void abs2_backprop_scalar(float* g, const float* e, const float* gy,
                          std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    g[2 * i] += 2.0f * e[2 * i] * gy[i];
    g[2 * i + 1] += 2.0f * e[2 * i + 1] * gy[i];
  }
}

template <typename C>
void fft_stage_scalar(C* x, int len, int half, const C* tw) {
  for (int base = 0; base < len; base += 2 * half) {
    for (int k = 0; k < half; ++k) {
      const C t = cmul_ref(x[base + half + k], tw[k]);
      x[base + half + k] = x[base + k] - t;
      x[base + k] += t;
    }
  }
}

// The reference for the paired pass: the two stages, one after the other.
template <typename C>
void fft_stage_pair_scalar(C* x, int len, int half, const C* tw,
                           const C* tw2) {
  fft_stage_scalar(x, len, half, tw);
  fft_stage_scalar(x, len, 2 * half, tw2);
}

// fft_stage's butterfly, t = b * w; b = a - t; a += t.
template <typename C>
inline void butterfly_ref(C& a, C& b, const C& w) {
  const C t = cmul_ref(b, w);
  b = a - t;
  a += t;
}

// x *= scale[0]; x *= scale[1] — the fft_rows_* output scaling, two
// roundings per component (a no-op for a null scale).
template <typename C>
inline void rescale_ref(C& x, const typename C::value_type* scale) {
  if (scale == nullptr) return;
  x *= scale[0];
  x *= scale[1];
}

// One row of a column-block pass: it reads `in` (null: an all-zero row,
// read as +0) and either stores its output to `out` or, with a non-null
// `acc`, adds each output's |.|^2 to acc and leaves `out` alone.
template <typename C>
struct RowIo {
  const C* in;
  C* out;
  typename C::value_type* acc;
};

// Row r of a [rows x width] block x: read from src[r] when a row table is
// given (the gathered first pass), else from x's own row; the |.|^2
// epilogue targets acc's row r.
template <typename C>
inline RowIo<C> row_io(C* x, const C* const* src,
                       typename C::value_type* acc, int r, int width) {
  const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(r) * width;
  return {src != nullptr ? src[r] : x + off, x + off,
          acc != nullptr ? acc + off : nullptr};
}

template <typename C>
inline C load_ref(const RowIo<C>& row, int j) {
  return row.in != nullptr ? row.in[j] : C(0, 0);
}

// Stores v, or adds |v|^2 = re*re + im*im — abs2_accum's expression and
// operand order.
template <typename C>
inline void put_ref(const RowIo<C>& row, int j, const C& v) {
  if (row.acc != nullptr) {
    row.acc[j] += v.real() * v.real() + v.imag() * v.imag();
  } else {
    row.out[j] = v;
  }
}

// fft_stage's butterfly on columns [from, width) of one row pair, with the
// row pair's one twiddle, then the output scaling; the vector arms' column
// tails run it too.
template <typename C>
inline void butterfly_rows_ref(const RowIo<C>& top, const RowIo<C>& bot,
                               int from, int width, const C& w,
                               const typename C::value_type* scale) {
  for (int j = from; j < width; ++j) {
    C a = load_ref(top, j);
    C b = load_ref(bot, j);
    butterfly_ref(a, b, w);
    rescale_ref(a, scale);
    rescale_ref(b, scale);
    put_ref(top, j, a);
    put_ref(bot, j, b);
  }
}

template <typename C>
void rows_stage_scalar(C* x, const C* const* src, int rows, int width,
                       int half, const C* tw,
                       const typename C::value_type* scale,
                       typename C::value_type* acc) {
  for (int base = 0; base < rows; base += 2 * half) {
    for (int k = 0; k < half; ++k) {
      butterfly_rows_ref(row_io(x, src, acc, base + k, width),
                         row_io(x, src, acc, base + half + k, width), 0,
                         width, tw[k], scale);
    }
  }
}

template <typename C>
void fft_rows_stage_scalar(C* x, int rows, int width, int half, const C* tw,
                           const typename C::value_type* scale,
                           typename C::value_type* acc) {
  rows_stage_scalar<C>(x, nullptr, rows, width, half, tw, scale, acc);
}

template <typename C>
void fft_rows_pair_scalar(C* x, int rows, int width, int half, const C* tw,
                          const C* tw2, const typename C::value_type* scale,
                          typename C::value_type* acc) {
  rows_stage_scalar<C>(x, nullptr, rows, width, half, tw, nullptr, nullptr);
  rows_stage_scalar<C>(x, nullptr, rows, width, 2 * half, tw2, scale, acc);
}

// The gathered pair: its first stage reads the row table and writes x,
// the second runs in place — the two stages of a placed block, bit for
// bit.
template <typename C>
void fft_rows_pair_gather_scalar(C* x, const C* const* src, int rows,
                                 int width, int half, const C* tw,
                                 const C* tw2,
                                 const typename C::value_type* scale,
                                 typename C::value_type* acc) {
  rows_stage_scalar<C>(x, src, rows, width, half, tw, nullptr, nullptr);
  rows_stage_scalar<C>(x, nullptr, rows, width, 2 * half, tw2, scale, acc);
}

// One radix-2² group of a paired pass on columns [from, width): rows g[0]
// .. g[3] are j, j+half, j+2*half, j+3*half — the two stages' four
// butterflies per column, in stage order, then the output scaling.
template <typename C>
inline void rows_group_ref(const RowIo<C> (&g)[4], int from, int width,
                           const C& w, const C& wa, const C& wb,
                           const typename C::value_type* scale) {
  for (int j = from; j < width; ++j) {
    C a = load_ref(g[0], j);
    C b = load_ref(g[1], j);
    C c = load_ref(g[2], j);
    C d = load_ref(g[3], j);
    butterfly_ref(a, b, w);
    butterfly_ref(c, d, w);
    butterfly_ref(a, c, wa);
    butterfly_ref(b, d, wb);
    rescale_ref(a, scale);
    rescale_ref(b, scale);
    rescale_ref(c, scale);
    rescale_ref(d, scale);
    put_ref(g[0], j, a);
    put_ref(g[1], j, b);
    put_ref(g[2], j, c);
    put_ref(g[3], j, d);
  }
}

// Calls pass.template operator()<flags...>() with one compile-time bool
// per runtime flag, so each combination of a column-block call's options
// (scaled, gathered, |.|^2 epilogue) runs its own loop with no per-element
// test.
template <bool... kFlags, typename Pass>
inline void with_flags(Pass&& pass) {
  pass.template operator()<kFlags...>();
}

template <bool... kFlags, typename Pass, typename... Rest>
inline void with_flags(Pass&& pass, bool flag, Rest... rest) {
  if (flag) {
    with_flags<kFlags..., true>(pass, rest...);
  } else {
    with_flags<kFlags..., false>(pass, rest...);
  }
}

#if NITHO_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 arms.  x86-64 baseline — no SSE3 addsub; a - b is written as
// a + (b ^ signmask), which is the IEEE definition of subtraction and
// therefore bit-identical.  Complex multiply follows the scalar formula
// (re1*re2 - im1*im2, re1*im2 + im1*re2); the imaginary part's two
// products may be summed in either order (IEEE addition is commutative).
// ---------------------------------------------------------------------------

// One complex<double> per vector: t = a*b as [re, im].
inline __m128d cmul1_sse2(__m128d a, __m128d b) {
  const __m128d br = _mm_shuffle_pd(b, b, 0x0);  // [br, br]
  const __m128d bi = _mm_shuffle_pd(b, b, 0x3);  // [bi, bi]
  const __m128d as = _mm_shuffle_pd(a, a, 0x1);  // [ai, ar]
  const __m128d t1 = _mm_mul_pd(a, br);          // [ar*br, ai*br]
  const __m128d t2 = _mm_mul_pd(as, bi);         // [ai*bi, ar*bi]
  const __m128d sign = _mm_set_pd(0.0, -0.0);    // negate lane 0
  return _mm_add_pd(t1, _mm_xor_pd(t2, sign));   // [ar*br-ai*bi, ai*br+ar*bi]
}

// Two complex<float> per vector.
inline __m128 cmul2_sse2(__m128 a, __m128 b) {
  const __m128 br = _mm_shuffle_ps(b, b, _MM_SHUFFLE(2, 2, 0, 0));
  const __m128 bi = _mm_shuffle_ps(b, b, _MM_SHUFFLE(3, 3, 1, 1));
  const __m128 as = _mm_shuffle_ps(a, a, _MM_SHUFFLE(2, 3, 0, 1));
  const __m128 t1 = _mm_mul_ps(a, br);
  const __m128 t2 = _mm_mul_ps(as, bi);
  const __m128 sign = _mm_set_ps(0.0f, -0.0f, 0.0f, -0.0f);
  return _mm_add_ps(t1, _mm_xor_ps(t2, sign));
}

void cmul_sse2(cd* dst, const cd* a, const cd* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const __m128d av = _mm_loadu_pd(reinterpret_cast<const double*>(a + i));
    const __m128d bv = _mm_loadu_pd(reinterpret_cast<const double*>(b + i));
    _mm_storeu_pd(reinterpret_cast<double*>(dst + i), cmul1_sse2(av, bv));
  }
}

void cmul_sse2(cf* dst, const cf* a, const cf* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 av = _mm_loadu_ps(reinterpret_cast<const float*>(a + i));
    const __m128 bv = _mm_loadu_ps(reinterpret_cast<const float*>(b + i));
    _mm_storeu_ps(reinterpret_cast<float*>(dst + i), cmul2_sse2(av, bv));
  }
  for (; i < n; ++i) dst[i] = cmul_ref(a[i], b[i]);
}

void abs2_accum_sse2(float* acc, const float* e, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v0 = _mm_loadu_ps(e + 2 * i);      // [x0,y0,x1,y1]
    const __m128 v1 = _mm_loadu_ps(e + 2 * i + 4);  // [x2,y2,x3,y3]
    const __m128 ev = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128 od = _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128 nrm = _mm_add_ps(_mm_mul_ps(ev, ev), _mm_mul_ps(od, od));
    _mm_storeu_ps(acc + i, _mm_add_ps(_mm_loadu_ps(acc + i), nrm));
  }
  for (; i < n; ++i) {
    acc[i] += e[2 * i] * e[2 * i] + e[2 * i + 1] * e[2 * i + 1];
  }
}

// divps / sqrtps are IEEE correctly-rounded (unlike the rcpps / rsqrtps
// approximations, which are never used here), so every lane reproduces the
// scalar arm's mul/add/div/sqrt sequence bit for bit.
void adam_update_sse2(float* p, float* m, float* v, const float* g,
                      std::int64_t n, float beta1, float beta2, float bc1,
                      float bc2, float lr, float eps) {
  const __m128 b1 = _mm_set1_ps(beta1), ob1 = _mm_set1_ps(1.0f - beta1);
  const __m128 b2 = _mm_set1_ps(beta2), ob2 = _mm_set1_ps(1.0f - beta2);
  const __m128 c1 = _mm_set1_ps(bc1), c2 = _mm_set1_ps(bc2);
  const __m128 lrv = _mm_set1_ps(lr), ev = _mm_set1_ps(eps);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 gv = _mm_loadu_ps(g + i);
    const __m128 mv = _mm_add_ps(_mm_mul_ps(b1, _mm_loadu_ps(m + i)),
                                 _mm_mul_ps(ob1, gv));
    const __m128 vv = _mm_add_ps(_mm_mul_ps(b2, _mm_loadu_ps(v + i)),
                                 _mm_mul_ps(_mm_mul_ps(ob2, gv), gv));
    _mm_storeu_ps(m + i, mv);
    _mm_storeu_ps(v + i, vv);
    const __m128 step =
        _mm_div_ps(_mm_mul_ps(lrv, _mm_div_ps(mv, c1)),
                   _mm_add_ps(_mm_sqrt_ps(_mm_div_ps(vv, c2)), ev));
    _mm_storeu_ps(p + i, _mm_sub_ps(_mm_loadu_ps(p + i), step));
  }
  if (i < n) {
    adam_update_scalar(p + i, m + i, v + i, g + i, n - i, beta1, beta2, bc1,
                       bc2, lr, eps);
  }
}

// Register-blocked panel, MR rows held in accumulators across the whole k
// fold.  Each c[r][j] still receives one rounded mul + one rounded add per
// p, in ascending p — the scalar arm's sequence, minus the per-p memory
// round trip (fp32 in xmm/ymm lanes is the same format as fp32 in memory,
// so keeping the fold in registers is bit-preserving).
template <int MR>
void gemm_panel_sse2_t(float* c, std::int64_t ldc, const float* a,
                       std::int64_t ars, std::int64_t aps, const float* b,
                       std::int64_t ldb, std::int64_t k, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m128 acc0[MR], acc1[MR];
    for (int r = 0; r < MR; ++r) {
      acc0[r] = _mm_loadu_ps(c + r * ldc + j);
      acc1[r] = _mm_loadu_ps(c + r * ldc + j + 4);
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const __m128 b0 = _mm_loadu_ps(b + p * ldb + j);
      const __m128 b1 = _mm_loadu_ps(b + p * ldb + j + 4);
      for (int r = 0; r < MR; ++r) {
        const __m128 av = _mm_set1_ps(a[r * ars + p * aps]);
        acc0[r] = _mm_add_ps(acc0[r], _mm_mul_ps(av, b0));
        acc1[r] = _mm_add_ps(acc1[r], _mm_mul_ps(av, b1));
      }
    }
    for (int r = 0; r < MR; ++r) {
      _mm_storeu_ps(c + r * ldc + j, acc0[r]);
      _mm_storeu_ps(c + r * ldc + j + 4, acc1[r]);
    }
  }
  for (; j + 4 <= n; j += 4) {
    __m128 acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = _mm_loadu_ps(c + r * ldc + j);
    for (std::int64_t p = 0; p < k; ++p) {
      const __m128 bv = _mm_loadu_ps(b + p * ldb + j);
      for (int r = 0; r < MR; ++r) {
        const __m128 av = _mm_set1_ps(a[r * ars + p * aps]);
        acc[r] = _mm_add_ps(acc[r], _mm_mul_ps(av, bv));
      }
    }
    for (int r = 0; r < MR; ++r) _mm_storeu_ps(c + r * ldc + j, acc[r]);
  }
  if (j < n) {
    for (int r = 0; r < MR; ++r) {
      float* crow = c + r * ldc;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = a[r * ars + p * aps];
        const float* brow = b + p * ldb;
        for (std::int64_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
      }
    }
  }
}

void gemm_panel_sse2(float* c, std::int64_t ldc, const float* a,
                     std::int64_t ars, std::int64_t aps, const float* b,
                     std::int64_t ldb, std::int64_t mr, std::int64_t k,
                     std::int64_t n) {
  switch (mr) {
    case 1:
      gemm_panel_sse2_t<1>(c, ldc, a, ars, aps, b, ldb, k, n);
      return;
    case 2:
      gemm_panel_sse2_t<2>(c, ldc, a, ars, aps, b, ldb, k, n);
      return;
    case 3:
      gemm_panel_sse2_t<3>(c, ldc, a, ars, aps, b, ldb, k, n);
      return;
    default:
      gemm_panel_sse2_t<4>(c, ldc, a, ars, aps, b, ldb, k, n);
      return;
  }
}

void abs2_backprop_sse2(float* g, const float* e, const float* gy,
                        std::int64_t n) {
  const __m128 two = _mm_set1_ps(2.0f);
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 ev = _mm_loadu_ps(e + 2 * i);  // [x0,y0,x1,y1]
    // 64-bit unaligned load of [g0,g1]: gy is only 4-byte aligned, so
    // _mm_load_sd (a plain double dereference under GCC) would be UB here.
    const __m128 gv2 = _mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(gy + i)));
    const __m128 gyp = _mm_shuffle_ps(gv2, gv2, _MM_SHUFFLE(1, 1, 0, 0));
    const __m128 t = _mm_mul_ps(_mm_mul_ps(two, ev), gyp);
    _mm_storeu_ps(g + 2 * i, _mm_add_ps(_mm_loadu_ps(g + 2 * i), t));
  }
  for (; i < n; ++i) {
    g[2 * i] += 2.0f * e[2 * i] * gy[i];
    g[2 * i + 1] += 2.0f * e[2 * i + 1] * gy[i];
  }
}

void fft_stage_sse2(std::complex<double>* x, int len, int half,
                    const std::complex<double>* tw) {
  if (half < 1) return;
  for (int base = 0; base < len; base += 2 * half) {
    double* top = reinterpret_cast<double*>(x + base);
    double* bot = reinterpret_cast<double*>(x + base + half);
    for (int k = 0; k < half; ++k) {
      const __m128d w =
          _mm_loadu_pd(reinterpret_cast<const double*>(tw + k));
      const __m128d bv = _mm_loadu_pd(bot + 2 * k);
      const __m128d tv = cmul1_sse2(bv, w);
      const __m128d tp = _mm_loadu_pd(top + 2 * k);
      _mm_storeu_pd(bot + 2 * k, _mm_sub_pd(tp, tv));
      _mm_storeu_pd(top + 2 * k, _mm_add_pd(tp, tv));
    }
  }
}

void fft_stage_sse2(std::complex<float>* x, int len, int half,
                    const std::complex<float>* tw) {
  if (half < 2) {
    fft_stage_scalar(x, len, half, tw);
    return;
  }
  for (int base = 0; base < len; base += 2 * half) {
    float* top = reinterpret_cast<float*>(x + base);
    float* bot = reinterpret_cast<float*>(x + base + half);
    for (int k = 0; k + 2 <= half; k += 2) {
      const __m128 w = _mm_loadu_ps(reinterpret_cast<const float*>(tw + k));
      const __m128 bv = _mm_loadu_ps(bot + 2 * k);
      const __m128 tv = cmul2_sse2(bv, w);
      const __m128 tp = _mm_loadu_ps(top + 2 * k);
      _mm_storeu_ps(bot + 2 * k, _mm_sub_ps(tp, tv));
      _mm_storeu_ps(top + 2 * k, _mm_add_ps(tp, tv));
    }
  }
}

// The SSE2 arm of the paired pass is the two SSE2 stages in turn.
template <typename C>
void fft_stage_pair_sse2(C* x, int len, int half, const C* tw, const C* tw2) {
  fft_stage_sse2(x, len, half, tw);
  fft_stage_sse2(x, len, 2 * half, tw2);
}

// Column-block stages: lanes span a row pair's columns, one complex<double>
// or two complex<float> per vector, with the row pair's twiddle in every
// lane; the columns past the last whole vector run butterfly_rows_ref.
inline __m128d splat128(const std::complex<double>* w) {
  return _mm_loadu_pd(reinterpret_cast<const double*>(w));
}

inline __m128 splat128(const std::complex<float>* w) {
  const __m128 v = _mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w)));
  return _mm_movelh_ps(v, v);  // [wr, wi, wr, wi]
}

// v * s0 * s1, as two multiplies.
inline __m128d rescale128(__m128d v, __m128d s0, __m128d s1) {
  return _mm_mul_pd(_mm_mul_pd(v, s0), s1);
}

inline __m128 rescale128(__m128 v, __m128 s0, __m128 s1) {
  return _mm_mul_ps(_mm_mul_ps(v, s0), s1);
}

inline __m128d set1_128(double v) { return _mm_set1_pd(v); }
inline __m128 set1_128(float v) { return _mm_set1_ps(v); }
inline __m128d cmul128(__m128d a, __m128d b) { return cmul1_sse2(a, b); }
inline __m128 cmul128(__m128 a, __m128 b) { return cmul2_sse2(a, b); }
inline __m128d add128(__m128d a, __m128d b) { return _mm_add_pd(a, b); }
inline __m128 add128(__m128 a, __m128 b) { return _mm_add_ps(a, b); }
inline __m128d sub128(__m128d a, __m128d b) { return _mm_sub_pd(a, b); }
inline __m128 sub128(__m128 a, __m128 b) { return _mm_sub_ps(a, b); }

inline void store128(std::complex<double>* p, __m128d v) {
  _mm_storeu_pd(reinterpret_cast<double*>(p), v);
}

inline void store128(std::complex<float>* p, __m128 v) {
  _mm_storeu_ps(reinterpret_cast<float*>(p), v);
}

// Loads a pass's input lanes from row + j, or +0 lanes for a null row (a
// zero row of a gathered first pass; a non-gathered row is never null).
template <bool kGather>
inline __m128d load_row128(const std::complex<double>* row, int j) {
  if (kGather && row == nullptr) return _mm_setzero_pd();
  return _mm_loadu_pd(reinterpret_cast<const double*>(row + j));
}

template <bool kGather>
inline __m128 load_row128(const std::complex<float>* row, int j) {
  if (kGather && row == nullptr) return _mm_setzero_ps();
  return _mm_loadu_ps(reinterpret_cast<const float*>(row + j));
}

// The |.|^2 epilogue on one register of each of two rows: acc0[j..] +=
// |a|^2, acc1[j..] += |b|^2, in the scalar expression's order — squares,
// then re^2 + im^2, then acc + that.
inline void abs2_rows128(double* acc0, double* acc1, __m128d a, __m128d b) {
  const __m128d sa = _mm_mul_pd(a, a);  // [re_a^2, im_a^2]
  const __m128d sb = _mm_mul_pd(b, b);
  const __m128d nrm =
      _mm_add_pd(_mm_unpacklo_pd(sa, sb), _mm_unpackhi_pd(sa, sb));
  _mm_store_sd(acc0, _mm_add_sd(_mm_load_sd(acc0), nrm));
  _mm_store_sd(acc1,
               _mm_add_sd(_mm_load_sd(acc1), _mm_unpackhi_pd(nrm, nrm)));
}

inline __m128 load2_ps(const float* p) {
  return _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

inline void store2_ps(float* p, __m128 v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_castps_si128(v));
}

inline void abs2_rows128(float* acc0, float* acc1, __m128 a, __m128 b) {
  // [re_a0, re_a1, re_b0, re_b1] and the imaginary parts alike.
  const __m128 ev = _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
  const __m128 od = _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
  const __m128 nrm = _mm_add_ps(_mm_mul_ps(ev, ev), _mm_mul_ps(od, od));
  const __m128 sum =
      _mm_add_ps(_mm_movelh_ps(load2_ps(acc0), load2_ps(acc1)), nrm);
  store2_ps(acc0, sum);
  store2_ps(acc1, _mm_movehl_ps(sum, sum));
}

// One row pair of a column-block stage: kGather reads top.in / bot.in
// (null rows as +0 lanes) instead of the rows it writes; kAbs2 adds the
// outputs' |.|^2 to top.acc / bot.acc instead of storing them.
template <bool kScaled, bool kGather, bool kAbs2, typename C>
void butterfly_rows128(const RowIo<C>& top, const RowIo<C>& bot, int width,
                       const C* w, const typename C::value_type* scale) {
  using R = typename C::value_type;
  constexpr int kLane = static_cast<int>(16 / sizeof(C));
  const auto wv = splat128(w);
  const auto s0 = set1_128(kScaled ? scale[0] : R(1));
  const auto s1 = set1_128(kScaled ? scale[1] : R(1));
  int j = 0;
  for (; j + kLane <= width; j += kLane) {
    const auto tv = cmul128(load_row128<kGather>(bot.in, j), wv);
    const auto tp = load_row128<kGather>(top.in, j);
    auto a = add128(tp, tv);
    auto b = sub128(tp, tv);
    if (kScaled) {
      a = rescale128(a, s0, s1);
      b = rescale128(b, s0, s1);
    }
    if constexpr (kAbs2) {
      abs2_rows128(top.acc + j, bot.acc + j, a, b);
    } else {
      store128(bot.out + j, b);
      store128(top.out + j, a);
    }
  }
  butterfly_rows_ref(top, bot, j, width, *w, kScaled ? scale : nullptr);
}

template <typename C>
void rows_stage128(C* x, const C* const* src, int rows, int width, int half,
                   const C* tw, const typename C::value_type* scale,
                   typename C::value_type* acc) {
  for (int base = 0; base < rows; base += 2 * half) {
    for (int k = 0; k < half; ++k) {
      const RowIo<C> top = row_io(x, src, acc, base + k, width);
      const RowIo<C> bot = row_io(x, src, acc, base + half + k, width);
      with_flags(
          [&]<bool kScaled, bool kGather, bool kAbs2>() {
            butterfly_rows128<kScaled, kGather, kAbs2>(top, bot, width,
                                                       tw + k, scale);
          },
          scale != nullptr, src != nullptr, acc != nullptr);
    }
  }
}

template <typename C>
void fft_rows_stage_sse2(C* x, int rows, int width, int half, const C* tw,
                         const typename C::value_type* scale,
                         typename C::value_type* acc) {
  rows_stage128<C>(x, nullptr, rows, width, half, tw, scale, acc);
}

// As for the segment pass, the SSE2 pairs are two SSE2 stages in turn; a
// gathered pair's first stage reads the row table.
template <typename C>
void fft_rows_pair_sse2(C* x, int rows, int width, int half, const C* tw,
                        const C* tw2, const typename C::value_type* scale,
                        typename C::value_type* acc) {
  rows_stage128<C>(x, nullptr, rows, width, half, tw, nullptr, nullptr);
  rows_stage128<C>(x, nullptr, rows, width, 2 * half, tw2, scale, acc);
}

template <typename C>
void fft_rows_pair_gather_sse2(C* x, const C* const* src, int rows,
                               int width, int half, const C* tw,
                               const C* tw2,
                               const typename C::value_type* scale,
                               typename C::value_type* acc) {
  rows_stage128<C>(x, src, rows, width, half, tw, nullptr, nullptr);
  rows_stage128<C>(x, nullptr, rows, width, 2 * half, tw2, scale, acc);
}

// ---------------------------------------------------------------------------
// AVX2 arms.  Compiled with a per-function target attribute (the TU itself
// builds with baseline flags) and dispatched only when CPUID reports AVX2.
// Same formulas as SSE2, two complex<double> / four complex<float> lanes.
// _mm256_addsub_* computes t1 - t2 in even lanes and t1 + t2 in odd lanes —
// exactly the scalar (re1*re2 - im1*im2, im1*re2 + re1*im2).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256d cmul2_avx2(__m256d a,
                                                          __m256d b) {
  const __m256d br = _mm256_movedup_pd(b);         // [br0,br0,br1,br1]
  const __m256d bi = _mm256_permute_pd(b, 0xF);    // [bi0,bi0,bi1,bi1]
  const __m256d as = _mm256_permute_pd(a, 0x5);    // [ai0,ar0,ai1,ar1]
  const __m256d t1 = _mm256_mul_pd(a, br);
  const __m256d t2 = _mm256_mul_pd(as, bi);
  return _mm256_addsub_pd(t1, t2);
}

__attribute__((target("avx2"))) inline __m256 cmul4_avx2(__m256 a, __m256 b) {
  const __m256 br = _mm256_moveldup_ps(b);
  const __m256 bi = _mm256_movehdup_ps(b);
  const __m256 as = _mm256_permute_ps(a, 0xB1);
  const __m256 t1 = _mm256_mul_ps(a, br);
  const __m256 t2 = _mm256_mul_ps(as, bi);
  return _mm256_addsub_ps(t1, t2);
}

__attribute__((target("avx2"))) void cmul_avx2(cd* dst, const cd* a,
                                               const cd* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d av =
        _mm256_loadu_pd(reinterpret_cast<const double*>(a + i));
    const __m256d bv =
        _mm256_loadu_pd(reinterpret_cast<const double*>(b + i));
    _mm256_storeu_pd(reinterpret_cast<double*>(dst + i), cmul2_avx2(av, bv));
  }
  for (; i < n; ++i) {
    const __m128d av = _mm_loadu_pd(reinterpret_cast<const double*>(a + i));
    const __m128d bv = _mm_loadu_pd(reinterpret_cast<const double*>(b + i));
    _mm_storeu_pd(reinterpret_cast<double*>(dst + i), cmul1_sse2(av, bv));
  }
}

__attribute__((target("avx2"))) void cmul_avx2(cf* dst, const cf* a,
                                               const cf* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 av = _mm256_loadu_ps(reinterpret_cast<const float*>(a + i));
    const __m256 bv = _mm256_loadu_ps(reinterpret_cast<const float*>(b + i));
    _mm256_storeu_ps(reinterpret_cast<float*>(dst + i), cmul4_avx2(av, bv));
  }
  for (; i < n; ++i) dst[i] = cmul_ref(a[i], b[i]);
}

__attribute__((target("avx2"))) void abs2_accum_avx2(float* acc,
                                                     const float* e,
                                                     std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v0 = _mm256_loadu_ps(e + 2 * i);
    const __m256 v1 = _mm256_loadu_ps(e + 2 * i + 8);
    const __m256 ev = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0));
    const __m256 od = _mm256_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1));
    const __m256 nrm = _mm256_add_ps(_mm256_mul_ps(ev, ev),
                                     _mm256_mul_ps(od, od));
    // Lanewise shuffle leaves pixels as [p0p1, p4p5, p2p3, p6p7] in 64-bit
    // chunks; permute them back into pixel order before accumulating.
    const __m256 ord = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(nrm), _MM_SHUFFLE(3, 1, 2, 0)));
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), ord));
  }
  for (; i < n; ++i) {
    acc[i] += e[2 * i] * e[2 * i] + e[2 * i + 1] * e[2 * i + 1];
  }
}

__attribute__((target("avx2"))) void adam_update_avx2(
    float* p, float* m, float* v, const float* g, std::int64_t n, float beta1,
    float beta2, float bc1, float bc2, float lr, float eps) {
  const __m256 b1 = _mm256_set1_ps(beta1), ob1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 b2 = _mm256_set1_ps(beta2), ob2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 c1 = _mm256_set1_ps(bc1), c2 = _mm256_set1_ps(bc2);
  const __m256 lrv = _mm256_set1_ps(lr), ev = _mm256_set1_ps(eps);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(ob1, gv));
    const __m256 vv =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(ob2, gv), gv));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lrv, _mm256_div_ps(mv, c1)),
        _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vv, c2)), ev));
    _mm256_storeu_ps(p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i), step));
  }
  if (i < n) {
    adam_update_sse2(p + i, m + i, v + i, g + i, n - i, beta1, beta2, bc1,
                     bc2, lr, eps);
  }
}

// Same panel as SSE2 with 8-float lanes; MR=4, NR=16 uses 8 accumulator
// registers + 2 B-row registers + 1 broadcast, fitting the 16-ymm budget.
template <int MR>
__attribute__((target("avx2"))) void gemm_panel_avx2_t(
    float* c, std::int64_t ldc, const float* a, std::int64_t ars,
    std::int64_t aps, const float* b, std::int64_t ldb, std::int64_t k,
    std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0[MR], acc1[MR];
    for (int r = 0; r < MR; ++r) {
      acc0[r] = _mm256_loadu_ps(c + r * ldc + j);
      acc1[r] = _mm256_loadu_ps(c + r * ldc + j + 8);
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const __m256 b0 = _mm256_loadu_ps(b + p * ldb + j);
      const __m256 b1 = _mm256_loadu_ps(b + p * ldb + j + 8);
      for (int r = 0; r < MR; ++r) {
        const __m256 av = _mm256_set1_ps(a[r * ars + p * aps]);
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
      }
    }
    for (int r = 0; r < MR; ++r) {
      _mm256_storeu_ps(c + r * ldc + j, acc0[r]);
      _mm256_storeu_ps(c + r * ldc + j + 8, acc1[r]);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc + j);
    for (std::int64_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
      for (int r = 0; r < MR; ++r) {
        const __m256 av = _mm256_set1_ps(a[r * ars + p * aps]);
        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, bv));
      }
    }
    for (int r = 0; r < MR; ++r) _mm256_storeu_ps(c + r * ldc + j, acc[r]);
  }
  if (j < n) {
    // SSE2 sub-panel on the remaining columns (4-wide body + scalar tail).
    gemm_panel_sse2_t<MR>(c + j, ldc, a, ars, aps, b + j, ldb, k, n - j);
  }
}

__attribute__((target("avx2"))) void gemm_panel_avx2(
    float* c, std::int64_t ldc, const float* a, std::int64_t ars,
    std::int64_t aps, const float* b, std::int64_t ldb, std::int64_t mr,
    std::int64_t k, std::int64_t n) {
  switch (mr) {
    case 1:
      gemm_panel_avx2_t<1>(c, ldc, a, ars, aps, b, ldb, k, n);
      return;
    case 2:
      gemm_panel_avx2_t<2>(c, ldc, a, ars, aps, b, ldb, k, n);
      return;
    case 3:
      gemm_panel_avx2_t<3>(c, ldc, a, ars, aps, b, ldb, k, n);
      return;
    default:
      gemm_panel_avx2_t<4>(c, ldc, a, ars, aps, b, ldb, k, n);
      return;
  }
}

__attribute__((target("avx2"))) void abs2_backprop_avx2(float* g,
                                                        const float* e,
                                                        const float* gy,
                                                        std::int64_t n) {
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256i dup = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 ev = _mm256_loadu_ps(e + 2 * i);  // 4 interleaved pixels
    const __m256 gv =
        _mm256_castps128_ps256(_mm_loadu_ps(gy + i));  // [g0..g3,·..·]
    const __m256 gyp = _mm256_permutevar8x32_ps(gv, dup);
    const __m256 t = _mm256_mul_ps(_mm256_mul_ps(two, ev), gyp);
    _mm256_storeu_ps(g + 2 * i, _mm256_add_ps(_mm256_loadu_ps(g + 2 * i), t));
  }
  for (; i < n; ++i) {
    g[2 * i] += 2.0f * e[2 * i] * gy[i];
    g[2 * i + 1] += 2.0f * e[2 * i + 1] * gy[i];
  }
}

__attribute__((target("avx2"))) void fft_stage_avx2(
    std::complex<double>* x, int len, int half,
    const std::complex<double>* tw) {
  if (half < 2) {
    fft_stage_sse2(x, len, half, tw);
    return;
  }
  for (int base = 0; base < len; base += 2 * half) {
    double* top = reinterpret_cast<double*>(x + base);
    double* bot = reinterpret_cast<double*>(x + base + half);
    for (int k = 0; k + 2 <= half; k += 2) {
      const __m256d w =
          _mm256_loadu_pd(reinterpret_cast<const double*>(tw + k));
      const __m256d bv = _mm256_loadu_pd(bot + 2 * k);
      const __m256d tv = cmul2_avx2(bv, w);
      const __m256d tp = _mm256_loadu_pd(top + 2 * k);
      _mm256_storeu_pd(bot + 2 * k, _mm256_sub_pd(tp, tv));
      _mm256_storeu_pd(top + 2 * k, _mm256_add_pd(tp, tv));
    }
  }
}

__attribute__((target("avx2"))) void fft_stage_avx2(
    std::complex<float>* x, int len, int half, const std::complex<float>* tw) {
  if (half < 4) {
    fft_stage_sse2(x, len, half, tw);
    return;
  }
  for (int base = 0; base < len; base += 2 * half) {
    float* top = reinterpret_cast<float*>(x + base);
    float* bot = reinterpret_cast<float*>(x + base + half);
    for (int k = 0; k + 4 <= half; k += 4) {
      const __m256 w = _mm256_loadu_ps(reinterpret_cast<const float*>(tw + k));
      const __m256 bv = _mm256_loadu_ps(bot + 2 * k);
      const __m256 tv = cmul4_avx2(bv, w);
      const __m256 tp = _mm256_loadu_ps(top + 2 * k);
      _mm256_storeu_ps(bot + 2 * k, _mm256_sub_ps(tp, tv));
      _mm256_storeu_ps(top + 2 * k, _mm256_add_ps(tp, tv));
    }
  }
}

// ---------------------------------------------------------------------------
// The paired radix-2 pass (radix-2²).  A block of 4*half elements holds
// half groups x[base+k + j*half], j = 0..3.  Stage `half` butterflies
// (x0, x1) and (x2, x3) with tw[k]; stage `2*half` then butterflies (x0, x2)
// with tw2[k] and (x1, x3) with tw2[half+k].  Each group is loaded once,
// runs all four butterflies in registers and is stored once — the same
// butterflies on the same operands as the two single stages.  When half is
// narrower than a register, the lanes span two blocks instead of k: the low
// 128 bits hold block base, the high 128 bits block base + 4*half.
// ---------------------------------------------------------------------------

// t = b * w; b = a - t; a = a + t — fft_stage's butterfly on registers.
__attribute__((target("avx2"))) inline void butterfly(__m256d& a,
                                                        __m256d& b,
                                                        __m256d w) {
  const __m256d t = cmul2_avx2(b, w);
  b = _mm256_sub_pd(a, t);
  a = _mm256_add_pd(a, t);
}

__attribute__((target("avx2"))) inline void butterfly(__m256& a, __m256& b,
                                                        __m256 w) {
  const __m256 t = cmul4_avx2(b, w);
  b = _mm256_sub_ps(a, t);
  a = _mm256_add_ps(a, t);
}

// 128 bits from lo in the low half, 128 bits from hi in the high half.
__attribute__((target("avx2"))) inline __m256d load_halves(const double* lo,
                                                          const double* hi) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(lo)),
                              _mm_loadu_pd(hi), 1);
}

__attribute__((target("avx2"))) inline void store_halves(double* lo,
                                                        double* hi,
                                                        __m256d v) {
  _mm_storeu_pd(hi, _mm256_extractf128_pd(v, 1));
  _mm_storeu_pd(lo, _mm256_castpd256_pd128(v));
}

__attribute__((target("avx2"))) inline __m256 load_halves(const float* lo,
                                                         const float* hi) {
  return _mm256_castpd_ps(load_halves(reinterpret_cast<const double*>(lo),
                                      reinterpret_cast<const double*>(hi)));
}

__attribute__((target("avx2"))) inline void store_halves(float* lo, float* hi,
                                                        __m256 v) {
  store_halves(reinterpret_cast<double*>(lo), reinterpret_cast<double*>(hi),
               _mm256_castps_pd(v));
}

// 128-bit twiddle pattern repeated in both halves.
__attribute__((target("avx2"))) inline __m256d twice(const double* w) {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w));
}

__attribute__((target("avx2"))) inline __m256 twice(const float* w) {
  return _mm256_broadcast_ps(reinterpret_cast<const __m128*>(w));
}

// The passes whose lanes span two blocks, one per 128-bit half: each
// register holds one 128-bit quarter j of block lo and the same quarter of
// block hi = lo + one block.  A lone last block pairs with itself (hi ==
// lo): both halves then compute the same group and store the same bits.
// `quarter` is in scalars; w repeats tw, wa and wb the two halves of tw2.
// Used for double half = 1 (quarter = 1 complex) and float half = 2
// (quarter = 2 complex).
template <typename V, typename R>
__attribute__((target("avx2"))) inline void pair_halves(R* p, int len,
                                                       int quarter, V w,
                                                       V wa, V wb) {
  const std::ptrdiff_t end = 2 * static_cast<std::ptrdiff_t>(len);
  const int block = 4 * quarter;
  for (std::ptrdiff_t i = 0; i < end; i += 2 * block) {
    R* const lo = p + i;
    R* const hi = end - i > block ? lo + block : lo;
    V a = load_halves(lo, hi);
    V b = load_halves(lo + quarter, hi + quarter);
    V c = load_halves(lo + 2 * quarter, hi + 2 * quarter);
    V d = load_halves(lo + 3 * quarter, hi + 3 * quarter);
    butterfly(a, b, w);
    butterfly(c, d, w);
    butterfly(a, c, wa);
    butterfly(b, d, wb);
    store_halves(lo, hi, a);
    store_halves(lo + quarter, hi + quarter, b);
    store_halves(lo + 2 * quarter, hi + 2 * quarter, c);
    store_halves(lo + 3 * quarter, hi + 3 * quarter, d);
  }
}

// Float half = 1, two 4-element blocks e (low half) and f (high half) at a
// time, paired as in pair_halves.  As 64-bit lanes A = [e0 e1 | f0 f1] and
// B = [e2 e3 | f2 f3]; unpacking gives the stage-1 pairs
// P = [e0 e2 | f0 f2], Q = [e1 e3 | f1 f3], and unpacking again the
// stage-2 pairs U = [e0 e1 | f0 f1], V = [e2 e3 | f2 f3] — memory order.
// w is tw[0] in every lane, w2 = [tw2[0] tw2[1]] in both halves.
__attribute__((target("avx2"))) inline void pair_f32_half1(float* p, int len,
                                                          __m256 w,
                                                          __m256 w2) {
  const std::ptrdiff_t end = 2 * static_cast<std::ptrdiff_t>(len);
  for (std::ptrdiff_t i = 0; i < end; i += 16) {
    float* const lo = p + i;
    float* const hi = end - i > 8 ? lo + 8 : lo;
    const __m256d a = _mm256_castps_pd(load_halves(lo, hi));
    const __m256d b = _mm256_castps_pd(load_halves(lo + 4, hi + 4));
    __m256 pv = _mm256_castpd_ps(_mm256_unpacklo_pd(a, b));
    __m256 qv = _mm256_castpd_ps(_mm256_unpackhi_pd(a, b));
    butterfly(pv, qv, w);
    __m256 u = _mm256_castpd_ps(
        _mm256_unpacklo_pd(_mm256_castps_pd(pv), _mm256_castps_pd(qv)));
    __m256 v = _mm256_castpd_ps(
        _mm256_unpackhi_pd(_mm256_castps_pd(pv), _mm256_castps_pd(qv)));
    butterfly(u, v, w2);
    store_halves(lo, hi, u);
    store_halves(lo + 4, hi + 4, v);
  }
}

__attribute__((target("avx2"))) inline __m256d load_vec(const double* p) {
  return _mm256_loadu_pd(p);
}
__attribute__((target("avx2"))) inline __m256 load_vec(const float* p) {
  return _mm256_loadu_ps(p);
}
__attribute__((target("avx2"))) inline void store_vec(double* p, __m256d v) {
  _mm256_storeu_pd(p, v);
}
__attribute__((target("avx2"))) inline void store_vec(float* p, __m256 v) {
  _mm256_storeu_ps(p, v);
}

// Lanes straight across k, for half a whole number of registers.  Groups
// are independent within the pass, so they may run in any order: blocks are
// walked in ~16 KB chunks with the lane offset o outermost, so each twiddle
// triple is loaded and shuffled once per chunk instead of once per block,
// while the chunk stays in L1 across the o sweep.
template <typename V, typename R>
__attribute__((target("avx2"))) inline void pair_straight(R* p, int len,
                                                          int half,
                                                          const R* w1,
                                                          const R* w2) {
  constexpr int kLane = static_cast<int>(sizeof(V) / sizeof(R));
  constexpr int kChunkElems = 16384 / static_cast<int>(2 * sizeof(R));
  const int quarter = 2 * half;  // scalars per j
  const int block = 4 * half;    // complex elements per block
  const int chunk = block > kChunkElems ? block : kChunkElems;
  for (int c0 = 0; c0 < len;) {
    const int c1 = len - c0 > chunk ? c0 + chunk : len;
    for (int o = 0; o < quarter; o += kLane) {
      const V w = load_vec(w1 + o);
      const V wa = load_vec(w2 + o);
      const V wb = load_vec(w2 + quarter + o);
      for (int base = c0; base < c1; base += block) {
        R* const x0 = p + 2 * static_cast<std::ptrdiff_t>(base) + o;
        V a = load_vec(x0);
        V b = load_vec(x0 + quarter);
        V c = load_vec(x0 + 2 * quarter);
        V d = load_vec(x0 + 3 * quarter);
        butterfly(a, b, w);
        butterfly(c, d, w);
        butterfly(a, c, wa);
        butterfly(b, d, wb);
        store_vec(x0, a);
        store_vec(x0 + quarter, b);
        store_vec(x0 + 2 * quarter, c);
        store_vec(x0 + 3 * quarter, d);
      }
    }
    c0 = c1;
  }
}

__attribute__((target("avx2"))) void fft_stage_pair_avx2(
    std::complex<double>* x, int len, int half,
    const std::complex<double>* tw, const std::complex<double>* tw2) {
  double* p = reinterpret_cast<double*>(x);
  const double* w1 = reinterpret_cast<const double*>(tw);
  const double* w2 = reinterpret_cast<const double*>(tw2);
  if (half == 1) {
    pair_halves(p, len, 2, twice(w1), twice(w2), twice(w2 + 2));
    return;
  }
  pair_straight<__m256d>(p, len, half, w1, w2);
}

__attribute__((target("avx2"))) void fft_stage_pair_avx2(
    std::complex<float>* x, int len, int half, const std::complex<float>* tw,
    const std::complex<float>* tw2) {
  float* p = reinterpret_cast<float*>(x);
  const float* w1 = reinterpret_cast<const float*>(tw);
  const float* w2 = reinterpret_cast<const float*>(tw2);
  if (half == 1) {
    pair_f32_half1(p, len,
                   _mm256_castpd_ps(_mm256_broadcast_sd(
                       reinterpret_cast<const double*>(w1))),
                   twice(w2));
    return;
  }
  if (half == 2) {
    pair_halves(p, len, 4, twice(w1), twice(w2), twice(w2 + 4));
    return;
  }
  pair_straight<__m256>(p, len, half, w1, w2);
}

// ---------------------------------------------------------------------------
// Column-block passes (fft_rows_*): the lanes of one register are
// kLane adjacent columns of a row, two complex<double> or four
// complex<float>, and every lane takes the row pair's one twiddle.  The
// paired pass loads the group rows j, j+half, j+2*half, j+3*half once,
// runs its four butterflies in registers and stores once; columns past the
// last whole register run the scalar reference on the same rows.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256d splat(
    const std::complex<double>* w) {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w));
}

__attribute__((target("avx2"))) inline __m256 splat(
    const std::complex<float>* w) {
  return _mm256_castpd_ps(
      _mm256_broadcast_sd(reinterpret_cast<const double*>(w)));
}

// The register type of a complex<R> lane group.
template <typename C>
struct Avx2Reg;
template <>
struct Avx2Reg<std::complex<double>> {
  using type = __m256d;
};
template <>
struct Avx2Reg<std::complex<float>> {
  using type = __m256;
};

__attribute__((target("avx2"))) inline __m256d rescale(__m256d v, double s0,
                                                      double s1) {
  return _mm256_mul_pd(_mm256_mul_pd(v, _mm256_set1_pd(s0)),
                       _mm256_set1_pd(s1));
}

__attribute__((target("avx2"))) inline __m256 rescale(__m256 v, float s0,
                                                     float s1) {
  return _mm256_mul_ps(_mm256_mul_ps(v, _mm256_set1_ps(s0)),
                       _mm256_set1_ps(s1));
}

// A pass's input lanes from row + j, or +0 lanes (all bits clear) for a
// null row (a zero row of a gathered first pass; a non-gathered row is
// never null).
template <bool kGather, typename C>
__attribute__((target("avx2"))) inline typename Avx2Reg<C>::type load_row(
    const C* row, int j) {
  if (kGather && row == nullptr) return typename Avx2Reg<C>::type{};
  return load_vec(reinterpret_cast<const typename C::value_type*>(row + j));
}

// The |.|^2 epilogue on one register of each of two rows: acc0[j..] +=
// |a|^2, acc1[j..] += |b|^2.  Each pixel's re^2 + im^2 is formed in the
// scalar operand order (hadd for double, the even/odd shuffle abs2_accum
// uses for float), then acc + that; the 64-bit permute gathers each row's
// pixels into one 128-bit half.
__attribute__((target("avx2"))) inline void abs2_rows(double* acc0,
                                                      double* acc1,
                                                      __m256d a, __m256d b) {
  const __m256d pairs = _mm256_hadd_pd(_mm256_mul_pd(a, a),
                                       _mm256_mul_pd(b, b));  // [a0,b0,a1,b1]
  const __m256d nrm = _mm256_permute4x64_pd(pairs, _MM_SHUFFLE(3, 1, 2, 0));
  _mm_storeu_pd(acc0, _mm_add_pd(_mm_loadu_pd(acc0),
                                 _mm256_castpd256_pd128(nrm)));
  _mm_storeu_pd(acc1, _mm_add_pd(_mm_loadu_pd(acc1),
                                 _mm256_extractf128_pd(nrm, 1)));
}

__attribute__((target("avx2"))) inline void abs2_rows(float* acc0,
                                                      float* acc1, __m256 a,
                                                      __m256 b) {
  const __m256 ev = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
  const __m256 od = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
  const __m256 nrm = _mm256_add_ps(_mm256_mul_ps(ev, ev),
                                   _mm256_mul_ps(od, od));
  // [a0a1, b0b1, a2a3, b2b3] in 64-bit chunks -> [a0..a3, b0..b3].
  const __m256 ord = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(nrm), _MM_SHUFFLE(3, 1, 2, 0)));
  _mm_storeu_ps(acc0, _mm_add_ps(_mm_loadu_ps(acc0),
                                 _mm256_castps256_ps128(ord)));
  _mm_storeu_ps(acc1, _mm_add_ps(_mm_loadu_ps(acc1),
                                 _mm256_extractf128_ps(ord, 1)));
}

// A pass's outputs for rows p and q: stored, or (kAbs2) their |.|^2 added
// to the rows' accumulators.
template <bool kAbs2, typename C, typename V>
__attribute__((target("avx2"))) inline void put_rows(const RowIo<C>& p,
                                                     const RowIo<C>& q, int j,
                                                     V a, V b) {
  using R = typename C::value_type;
  if constexpr (kAbs2) {
    abs2_rows(p.acc + j, q.acc + j, a, b);
  } else {
    store_vec(reinterpret_cast<R*>(p.out + j), a);
    store_vec(reinterpret_cast<R*>(q.out + j), b);
  }
}

template <bool kScaled, bool kAbs2, typename C>
__attribute__((target("avx2"))) void rows_stage256(
    C* x, int rows, int width, int half, const C* tw,
    const typename C::value_type* scale, typename C::value_type* acc) {
  using V = typename Avx2Reg<C>::type;
  using R = typename C::value_type;
  constexpr int kLane = static_cast<int>(sizeof(V) / sizeof(C));
  const R s0 = kScaled ? scale[0] : R(1);
  const R s1 = kScaled ? scale[1] : R(1);
  for (int base = 0; base < rows; base += 2 * half) {
    for (int k = 0; k < half; ++k) {
      const RowIo<C> top = row_io<C>(x, nullptr, acc, base + k, width);
      const RowIo<C> bot = row_io<C>(x, nullptr, acc, base + half + k, width);
      const V w = splat(tw + k);
      int j = 0;
      for (; j + kLane <= width; j += kLane) {
        V a = load_row<false>(top.in, j);
        V b = load_row<false>(bot.in, j);
        butterfly(a, b, w);
        if (kScaled) {
          a = rescale(a, s0, s1);
          b = rescale(b, s0, s1);
        }
        put_rows<kAbs2>(top, bot, j, a, b);
      }
      butterfly_rows_ref(top, bot, j, width, tw[k], kScaled ? scale : nullptr);
    }
  }
}

template <typename C>
__attribute__((target("avx2"))) void fft_rows_stage_avx2(
    C* x, int rows, int width, int half, const C* tw,
    const typename C::value_type* scale, typename C::value_type* acc) {
  with_flags(
      [&]<bool kScaled, bool kAbs2>() {
        rows_stage256<kScaled, kAbs2>(x, rows, width, half, tw, scale, acc);
      },
      scale != nullptr, acc != nullptr);
}

// A radix-2² group's four rows are loaded once (kGather: from the row
// table, null rows as +0 lanes), butterflied in registers and scaled, then
// stored to x or (kAbs2) squared into acc.
template <bool kScaled, bool kGather, bool kAbs2, typename C>
__attribute__((target("avx2"))) void rows_pair256(
    C* x, const C* const* src, int rows, int width, int half, const C* tw,
    const C* tw2, const typename C::value_type* scale,
    typename C::value_type* acc) {
  using V = typename Avx2Reg<C>::type;
  using R = typename C::value_type;
  constexpr int kLane = static_cast<int>(sizeof(V) / sizeof(C));
  const R s0 = kScaled ? scale[0] : R(1);
  const R s1 = kScaled ? scale[1] : R(1);
  for (int base = 0; base < rows; base += 4 * half) {
    for (int k = 0; k < half; ++k) {
      const int r0 = base + k;
      const RowIo<C> g[4] = {row_io(x, src, acc, r0, width),
                             row_io(x, src, acc, r0 + half, width),
                             row_io(x, src, acc, r0 + 2 * half, width),
                             row_io(x, src, acc, r0 + 3 * half, width)};
      const V w = splat(tw + k);
      const V wa = splat(tw2 + k);
      const V wb = splat(tw2 + half + k);
      int j = 0;
      for (; j + kLane <= width; j += kLane) {
        V a = load_row<kGather>(g[0].in, j);
        V b = load_row<kGather>(g[1].in, j);
        V c = load_row<kGather>(g[2].in, j);
        V d = load_row<kGather>(g[3].in, j);
        butterfly(a, b, w);
        butterfly(c, d, w);
        butterfly(a, c, wa);
        butterfly(b, d, wb);
        if (kScaled) {
          a = rescale(a, s0, s1);
          b = rescale(b, s0, s1);
          c = rescale(c, s0, s1);
          d = rescale(d, s0, s1);
        }
        put_rows<kAbs2>(g[0], g[1], j, a, b);
        put_rows<kAbs2>(g[2], g[3], j, c, d);
      }
      rows_group_ref(g, j, width, tw[k], tw2[k], tw2[half + k],
                     kScaled ? scale : nullptr);
    }
  }
}

template <typename C>
__attribute__((target("avx2"))) void fft_rows_pair_avx2(
    C* x, int rows, int width, int half, const C* tw, const C* tw2,
    const typename C::value_type* scale, typename C::value_type* acc) {
  with_flags(
      [&]<bool kScaled, bool kAbs2>() {
        rows_pair256<kScaled, false, kAbs2, C>(x, nullptr, rows, width, half,
                                               tw, tw2, scale, acc);
      },
      scale != nullptr, acc != nullptr);
}

template <typename C>
__attribute__((target("avx2"))) void fft_rows_pair_gather_avx2(
    C* x, const C* const* src, int rows, int width, int half, const C* tw,
    const C* tw2, const typename C::value_type* scale,
    typename C::value_type* acc) {
  with_flags(
      [&]<bool kScaled, bool kAbs2>() {
        rows_pair256<kScaled, true, kAbs2>(x, src, rows, width, half, tw, tw2,
                                           scale, acc);
      },
      scale != nullptr, acc != nullptr);
}

#endif  // NITHO_SIMD_X86

}  // namespace

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kSse2:
      return "sse2";
    case Arm::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

Arm detected_arm() {
  static const Arm arm = detect();
  return arm;
}

Arm active_arm() { return current(); }

Arm force_arm(Arm arm) {
  Arm target = arm;
  if (static_cast<int>(target) > static_cast<int>(detected_arm())) {
    target = detected_arm();
  }
  arm_slot().store(static_cast<int>(target), std::memory_order_relaxed);
  return target;
}

bool simd_compiled() {
#if NITHO_SIMD_X86
  return true;
#else
  return false;
#endif
}

#if NITHO_SIMD_X86
#define NITHO_DISPATCH(fn, ...)              \
  switch (current()) {                       \
    case Arm::kAvx2:                         \
      fn##_avx2(__VA_ARGS__);                \
      return;                                \
    case Arm::kSse2:                         \
      fn##_sse2(__VA_ARGS__);                \
      return;                                \
    default:                                 \
      fn##_scalar(__VA_ARGS__);              \
      return;                                \
  }
#else
#define NITHO_DISPATCH(fn, ...) fn##_scalar(__VA_ARGS__);
#endif

void cmul(cd* dst, const cd* a, const cd* b, std::int64_t n) {
  NITHO_DISPATCH(cmul, dst, a, b, n)
}

void cmul(cf* dst, const cf* a, const cf* b, std::int64_t n) {
  NITHO_DISPATCH(cmul, dst, a, b, n)
}

void cmul_inplace(cd* a, const cd* b, std::int64_t n) { cmul(a, a, b, n); }

void cmul_inplace(cf* a, const cf* b, std::int64_t n) { cmul(a, a, b, n); }

void abs2_accum(float* acc, const float* e, std::int64_t n) {
  NITHO_DISPATCH(abs2_accum, acc, e, n)
}

void adam_update(float* p, float* m, float* v, const float* g, std::int64_t n,
                 float beta1, float beta2, float bc1, float bc2, float lr,
                 float eps) {
  NITHO_DISPATCH(adam_update, p, m, v, g, n, beta1, beta2, bc1, bc2, lr, eps)
}

void gemm_panel(float* c, std::int64_t ldc, const float* a, std::int64_t ars,
                std::int64_t aps, const float* b, std::int64_t ldb,
                std::int64_t mr, std::int64_t k, std::int64_t n) {
  NITHO_DISPATCH(gemm_panel, c, ldc, a, ars, aps, b, ldb, mr, k, n)
}

void abs2_backprop(float* g, const float* e, const float* gy,
                   std::int64_t n) {
  NITHO_DISPATCH(abs2_backprop, g, e, gy, n)
}

void fft_stage(std::complex<double>* x, int len, int half,
               const std::complex<double>* tw) {
  NITHO_DISPATCH(fft_stage, x, len, half, tw)
}

void fft_stage(std::complex<float>* x, int len, int half,
               const std::complex<float>* tw) {
  NITHO_DISPATCH(fft_stage, x, len, half, tw)
}

void fft_stage_pair(std::complex<double>* x, int len, int half,
                    const std::complex<double>* tw,
                    const std::complex<double>* tw2) {
  NITHO_DISPATCH(fft_stage_pair, x, len, half, tw, tw2)
}

void fft_stage_pair(std::complex<float>* x, int len, int half,
                    const std::complex<float>* tw,
                    const std::complex<float>* tw2) {
  NITHO_DISPATCH(fft_stage_pair, x, len, half, tw, tw2)
}

void fft_rows_stage(std::complex<double>* x, int rows, int width, int half,
                    const std::complex<double>* tw, const double* scale,
                    double* acc) {
  NITHO_DISPATCH(fft_rows_stage, x, rows, width, half, tw, scale, acc)
}

void fft_rows_stage(std::complex<float>* x, int rows, int width, int half,
                    const std::complex<float>* tw, const float* scale,
                    float* acc) {
  NITHO_DISPATCH(fft_rows_stage, x, rows, width, half, tw, scale, acc)
}

void fft_rows_pair(std::complex<double>* x, int rows, int width, int half,
                   const std::complex<double>* tw,
                   const std::complex<double>* tw2, const double* scale,
                   double* acc) {
  NITHO_DISPATCH(fft_rows_pair, x, rows, width, half, tw, tw2, scale, acc)
}

void fft_rows_pair(std::complex<float>* x, int rows, int width, int half,
                   const std::complex<float>* tw,
                   const std::complex<float>* tw2, const float* scale,
                   float* acc) {
  NITHO_DISPATCH(fft_rows_pair, x, rows, width, half, tw, tw2, scale, acc)
}

void fft_rows_pair_gather(std::complex<double>* x,
                          const std::complex<double>* const* src, int rows,
                          int width, int half, const std::complex<double>* tw,
                          const std::complex<double>* tw2,
                          const double* scale, double* acc) {
  NITHO_DISPATCH(fft_rows_pair_gather, x, src, rows, width, half, tw, tw2,
                 scale, acc)
}

void fft_rows_pair_gather(std::complex<float>* x,
                          const std::complex<float>* const* src, int rows,
                          int width, int half, const std::complex<float>* tw,
                          const std::complex<float>* tw2, const float* scale,
                          float* acc) {
  NITHO_DISPATCH(fft_rows_pair_gather, x, src, rows, width, half, tw, tw2,
                 scale, acc)
}

#undef NITHO_DISPATCH

}  // namespace nitho::simd
