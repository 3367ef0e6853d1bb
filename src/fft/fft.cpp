#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "common/mutex.hpp"
#include "common/simd.hpp"

namespace nitho {
namespace {

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

int next_pow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

template <typename R>
struct FftPlan<R>::Impl {
  using C = std::complex<R>;

  explicit Impl(int n) : n(n) {
    check(n >= 1, "FFT size must be >= 1");
    if (is_pow2(n)) {
      init_pow2(n, twiddle, bitrev);
      build_stage_tables(n);
      // transform_many repeats the input permutation once per segment, so
      // flatten it to the (i, j) swaps with j > i — half the iterations and
      // no branch per element.  Same swaps, same bits.
      for (int i = 0; i < n; ++i) {
        if (bitrev[i] > i) {
          brev_pairs.push_back(i);
          brev_pairs.push_back(bitrev[i]);
        }
      }
    } else {
      // Bluestein: convolve with the chirp b_j = e^{i pi j^2 / n} using a
      // power-of-two FFT of length m >= 2n - 1.
      m = next_pow2(2 * n - 1);
      init_pow2(m, twiddle, bitrev);
      build_stage_tables(m);
      chirp.resize(n);
      for (int j = 0; j < n; ++j) {
        // j^2 mod 2n keeps the argument small for large n.
        const long long j2 = (static_cast<long long>(j) * j) % (2LL * n);
        const double ang = kPi * static_cast<double>(j2) / n;
        chirp[j] = C(static_cast<R>(std::cos(ang)), static_cast<R>(std::sin(ang)));
      }
      bfft.assign(m, C{});
      bfft[0] = chirp[0];
      for (int j = 1; j < n; ++j) {
        bfft[j] = chirp[j];
        bfft[m - j] = chirp[j];
      }
      pow2_transform(bfft.data(), m, /*inverse=*/false);
    }
  }

  static void init_pow2(int n, std::vector<C>& tw, std::vector<int>& rev) {
    tw.resize(n / 2);
    for (int k = 0; k < n / 2; ++k) {
      const double ang = -2.0 * kPi * k / n;
      tw[k] = C(static_cast<R>(std::cos(ang)), static_cast<R>(std::sin(ang)));
    }
    rev.resize(n);
    rev[0] = 0;
    int bits = 0;
    while ((1 << bits) < n) ++bits;
    for (int i = 1; i < n; ++i) {
      rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1));
    }
  }

  // Flatten the strided twiddle walk into one contiguous table per radix-2
  // stage so the vector butterflies load twiddles with plain vector loads.
  // The stage with half-size h reads h entries at offset h - 1 (total
  // len - 1 per direction); the inverse table holds the pre-conjugated
  // twiddles, which is the same bits the scalar conj-in-loop produced.
  void build_stage_tables(int len) {
    stage_fwd.resize(static_cast<std::size_t>(len) - 1);
    stage_inv.resize(static_cast<std::size_t>(len) - 1);
    for (int half = 1; half < len; half <<= 1) {
      const int step = len / (2 * half);
      C* fwd = stage_fwd.data() + (half - 1);
      C* inv = stage_inv.data() + (half - 1);
      for (int k = 0; k < half; ++k) {
        const C w = twiddle[static_cast<std::size_t>(k) * step];
        fwd[k] = w;
        inv[k] = std::conj(w);
      }
    }
  }

  // The one stage schedule every radix-2 transform of length `len` runs:
  // stages (1, 2), (4, 8), ... in radix-2² pairs, pair(half, tw, tw2),
  // then an odd last stage alone, stage(half, tw).
  template <typename Pair, typename Stage>
  static void stage_schedule(int len, const C* tables, Pair&& pair,
                             Stage&& stage) {
    int half = 1;
    for (; 4 * half <= len; half *= 4) {
      pair(half, tables + (half - 1), tables + (2 * half - 1));
    }
    if (half < len) stage(half, tables + (half - 1));
  }

  // Every radix-2 stage of a length-`len` transform over `total` elements
  // (total / len contiguous segments).  A pair is the two stages in turn,
  // bit for bit (simd::fft_stage_pair), and its 4*half-element blocks never
  // straddle a segment boundary, so every segment sees its own stage
  // sequence.
  static void run_stages(C* x, int total, int len, const C* tables) {
    stage_schedule(
        len, tables,
        [&](int half, const C* tw, const C* tw2) {
          simd::fft_stage_pair(x, total, half, tw, tw2);
        },
        [&](int half, const C* tw) { simd::fft_stage(x, total, half, tw); });
  }

  // Iterative radix-2 over the cached tables (len must be this plan's pow2
  // length: n for native plans, m for Bluestein plans).
  void pow2_transform(C* x, int len, bool inverse) const {
    for (int i = 0; i < len; ++i) {
      const int j = bitrev[i];
      if (j > i) std::swap(x[i], x[j]);
    }
    run_stages(x, len, len, inverse ? stage_inv.data() : stage_fwd.data());
  }

  // One transform of x[0], x[stride], ..., x[(n-1)*stride]; a stride
  // other than 1 only reaches Bluestein plans (the column fallback).
  void transform(C* x, bool inverse, C* scratch,
                 std::ptrdiff_t stride = 1) const {
    if (m == 0) {
      pow2_transform(x, n, inverse);
    } else if (scratch != nullptr) {
      bluestein(x, stride, inverse, scratch);
    } else {
      std::vector<C> local(static_cast<std::size_t>(m));
      bluestein(x, stride, inverse, local.data());
    }
    if (inverse) {
      const R scale = static_cast<R>(1.0 / n);
      for (int i = 0; i < n; ++i) x[i * stride] *= scale;
    }
  }

  // `count` contiguous segments in one pass: per-segment bit-reversal, then
  // the shared stage schedule over all segments at once.  Stage blocks tile
  // each segment exactly, so the butterflies — and therefore the bits —
  // match `count` separate transform() calls; only the dispatch count
  // changes.  The inverse 1/n scale stays one multiply per element.
  void transform_many(C* x, int count, bool inverse, C* scratch,
                      bool prerev = false) const {
    check(count >= 0 &&
              (count == 0 ||
               n <= std::numeric_limits<int>::max() / count),
          "FftPlan: transform_many length overflow");
    if (m != 0) {
      check(!prerev, "FftPlan: prerev transforms need a radix-2 size");
      // Bluestein reuses the serial convolution scratch per segment.
      for (int t = 0; t < count; ++t) {
        transform(x + static_cast<std::ptrdiff_t>(t) * n, inverse, scratch);
      }
      return;
    }
    if (!prerev) {
      const int np = static_cast<int>(brev_pairs.size());
      const int* pairs = brev_pairs.data();
      for (int t = 0; t < count; ++t) {
        C* seg = x + static_cast<std::ptrdiff_t>(t) * n;
        for (int k = 0; k < np; k += 2) {
          std::swap(seg[pairs[k]], seg[pairs[k + 1]]);
        }
      }
    }
    const int total = count * n;
    run_stages(x, total, n, inverse ? stage_inv.data() : stage_fwd.data());
    if (inverse) {
      const R scale = static_cast<R>(1.0 / n);
      for (int i = 0; i < total; ++i) x[i] *= scale;
    }
  }

  // acc[i] += |x[i]|^2 for the column transforms with no stage pass to
  // carry the intensity epilogue: the same expression, one pixel at a time.
  static void accumulate_abs2(const C* x, std::ptrdiff_t count, R* acc) {
    for (std::ptrdiff_t i = 0; i < count; ++i) {
      acc[i] += x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
    }
  }

  // Column transforms of a row-major [n x width] block.  Radix-2: the
  // shared stage schedule across whole rows (simd::fft_rows_pair /
  // fft_rows_stage), so column j sees exactly the butterflies a contiguous
  // copy of it would; the input permutation, when not prerev, swaps whole
  // rows, and an inverse's 1/n and `rescale` ride on the last pass.  A row
  // table (`rows`, see inverse_columns_gather) is read by the first stage
  // pair; a non-null `acc` turns the last pass into the intensity
  // epilogue.  Bluestein: one strided transform per column over `scratch`.
  void transform_columns(C* x, int width, bool inverse, C* scratch,
                         bool prerev, R rescale,
                         const C* const* rows = nullptr,
                         R* acc = nullptr) const {
    check(width >= 0 &&
              (width == 0 ||
               n <= std::numeric_limits<int>::max() / width),
          "FftPlan: column block length overflow");
    const std::ptrdiff_t total = static_cast<std::ptrdiff_t>(n) * width;
    if (rows != nullptr && (m != 0 || n < 4)) {
      // No stage pair to read the table: place the rows.
      for (int p = 0; p < n; ++p) {
        C* dst = x + static_cast<std::ptrdiff_t>(p) * width;
        if (rows[p] == nullptr) {
          std::fill(dst, dst + width, C(0, 0));
        } else if (rows[p] != dst) {
          std::copy_n(rows[p], width, dst);
        }
      }
      rows = nullptr;
    }
    if (m != 0) {
      check(!prerev, "FftPlan: prerev transforms need a radix-2 size");
      for (int j = 0; j < width; ++j) {
        transform(x + j, inverse, scratch, width);
        if (!inverse) continue;
        for (int i = 0; i < n; ++i) {
          x[j + static_cast<std::ptrdiff_t>(i) * width] *= rescale;
        }
      }
      if (acc != nullptr) accumulate_abs2(x, total, acc);
      return;
    }
    if (!prerev) {
      const int np = static_cast<int>(brev_pairs.size());
      for (int k = 0; k < np; k += 2) {
        C* a = x + static_cast<std::ptrdiff_t>(brev_pairs[k]) * width;
        C* b = x + static_cast<std::ptrdiff_t>(brev_pairs[k + 1]) * width;
        std::swap_ranges(a, a + width, b);
      }
    }
    const R scale[2] = {static_cast<R>(1.0 / n), rescale};
    const R* last = inverse ? scale : nullptr;
    if (n == 1) {
      // No stage to carry the scaling or the epilogue.
      if (last != nullptr) {
        for (int j = 0; j < width; ++j) {
          x[j] *= scale[0];
          x[j] *= scale[1];
        }
      }
      if (acc != nullptr) accumulate_abs2(x, total, acc);
      return;
    }
    stage_schedule(
        n, inverse ? stage_inv.data() : stage_fwd.data(),
        [&](int half, const C* tw, const C* tw2) {
          const bool final_pass = 4 * half == n;
          const R* sc = final_pass ? last : nullptr;
          R* out = final_pass ? acc : nullptr;
          if (rows != nullptr) {
            simd::fft_rows_pair_gather(x, rows, n, width, half, tw, tw2, sc,
                                       out);
            rows = nullptr;  // only the first pass reads the table
          } else {
            simd::fft_rows_pair(x, n, width, half, tw, tw2, sc, out);
          }
        },
        [&](int half, const C* tw) {
          simd::fft_rows_stage(x, n, width, half, tw, last, acc);
        });
  }

  void bluestein(C* x, std::ptrdiff_t stride, bool inverse, C* a) const {
    // Forward (sign -): X_k = conj(b_k) * sum_j x_j conj(b_j) b_{k-j}.
    // Inverse reuses the identity ifft(x) = conj(fft(conj(x))) (scaling is
    // applied by the caller).  `a` is the length-m convolution scratch;
    // x's elements sit `stride` apart.
    for (int j = 0; j < n; ++j) {
      const C xj = inverse ? std::conj(x[j * stride]) : x[j * stride];
      a[j] = xj * std::conj(chirp[j]);
    }
    for (int j = n; j < m; ++j) a[j] = C{};
    pow2_transform(a, m, false);
    simd::cmul_inplace(a, bfft.data(), m);
    pow2_transform(a, m, true);
    const R inv_m = static_cast<R>(1.0 / m);
    for (int k = 0; k < n; ++k) {
      C v = a[k] * inv_m * std::conj(chirp[k]);
      x[k * stride] = inverse ? std::conj(v) : v;
    }
  }

  int n;
  int m = 0;  // Bluestein pow2 length; 0 when n itself is a power of two
  std::vector<C> twiddle;
  std::vector<int> bitrev;
  std::vector<int> brev_pairs;  // flattened (i, j) swaps, j > i; pow2 only
  std::vector<C> chirp;
  aligned_vector<C> bfft;
  aligned_vector<C> stage_fwd, stage_inv;  // contiguous per-stage twiddles
};

template <typename R>
FftPlan<R>::FftPlan(int n) : impl_(std::make_unique<Impl>(n)) {}
template <typename R>
FftPlan<R>::~FftPlan() = default;
template <typename R>
FftPlan<R>::FftPlan(FftPlan&&) noexcept = default;
template <typename R>
FftPlan<R>& FftPlan<R>::operator=(FftPlan&&) noexcept = default;

template <typename R>
int FftPlan<R>::size() const {
  return impl_->n;
}

template <typename R>
int FftPlan<R>::scratch_size() const {
  return impl_->m;
}

template <typename R>
void FftPlan<R>::forward(std::complex<R>* x) const {
  impl_->transform(x, false, nullptr);
}

template <typename R>
void FftPlan<R>::inverse(std::complex<R>* x) const {
  impl_->transform(x, true, nullptr);
}

template <typename R>
void FftPlan<R>::forward(std::complex<R>* x, std::complex<R>* scratch) const {
  impl_->transform(x, false, scratch);
}

template <typename R>
void FftPlan<R>::inverse(std::complex<R>* x, std::complex<R>* scratch) const {
  impl_->transform(x, true, scratch);
}

template <typename R>
void FftPlan<R>::forward_many(std::complex<R>* x, int count,
                              std::complex<R>* scratch) const {
  impl_->transform_many(x, count, false, scratch);
}

template <typename R>
void FftPlan<R>::inverse_many(std::complex<R>* x, int count,
                              std::complex<R>* scratch) const {
  impl_->transform_many(x, count, true, scratch);
}

template <typename R>
const int* FftPlan<R>::bitrev_table() const {
  return impl_->m == 0 ? impl_->bitrev.data() : nullptr;
}

template <typename R>
void FftPlan<R>::forward_many_prerev(std::complex<R>* x, int count,
                                     std::complex<R>* scratch) const {
  impl_->transform_many(x, count, false, scratch, /*prerev=*/true);
}

template <typename R>
void FftPlan<R>::inverse_many_prerev(std::complex<R>* x, int count,
                                     std::complex<R>* scratch) const {
  impl_->transform_many(x, count, true, scratch, /*prerev=*/true);
}

template <typename R>
void FftPlan<R>::forward_columns(std::complex<R>* x, int width,
                                 std::complex<R>* scratch) const {
  impl_->transform_columns(x, width, false, scratch, /*prerev=*/false, R(1));
}

template <typename R>
void FftPlan<R>::forward_columns_prerev(std::complex<R>* x, int width,
                                        std::complex<R>* scratch) const {
  impl_->transform_columns(x, width, false, scratch, /*prerev=*/true, R(1));
}

template <typename R>
void FftPlan<R>::inverse_columns_gather(const std::complex<R>* const* rows,
                                        std::complex<R>* x, int width,
                                        std::complex<R>* scratch,
                                        R rescale) const {
  impl_->transform_columns(x, width, true, scratch,
                           /*prerev=*/impl_->m == 0, rescale, rows);
}

template <typename R>
void FftPlan<R>::intensity_columns_gather(const std::complex<R>* const* rows,
                                          std::complex<R>* x, int width,
                                          std::complex<R>* scratch,
                                          R rescale, R* acc) const {
  impl_->transform_columns(x, width, true, scratch,
                           /*prerev=*/impl_->m == 0, rescale, rows, acc);
}

template class FftPlan<double>;
template class FftPlan<float>;

namespace {

template <typename R>
const FftPlan<R>& cached_plan(int n) {
  // Function-local statics: the analysis cannot attach GUARDED_BY to them,
  // but the whole access path sits inside this one locked scope, so the
  // discipline is structural.  Plans are immutable once built; the returned
  // reference outlives the lock safely.
  static Mutex mu;
  static std::map<int, std::unique_ptr<FftPlan<R>>> cache;
  LockGuard lk(mu);
  auto& slot = cache[n];
  if (!slot) slot = std::make_unique<FftPlan<R>>(n);
  return *slot;
}

void fft2_dir(Grid<cd>& g, bool inverse, Fft2Workspace& ws) {
  const int rows = g.rows(), cols = g.cols();
  if (rows == 0 || cols == 0) return;
  const FftPlan<double>& row_plan = fft_plan_d(cols);
  cd* row_scratch = ws.scratch_for(row_plan);
  for (int r = 0; r < rows; ++r) {
    if (inverse) {
      row_plan.inverse(g.row(r), row_scratch);
    } else {
      row_plan.forward(g.row(r), row_scratch);
    }
  }
  const FftPlan<double>& col_plan = fft_plan_d(rows);
  cd* col_scratch = ws.scratch_for(col_plan);
  cd* buf = ws.col_buffer(rows);
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) buf[r] = g(r, c);
    if (inverse) {
      col_plan.inverse(buf, col_scratch);
    } else {
      col_plan.forward(buf, col_scratch);
    }
    for (int r = 0; r < rows; ++r) g(r, c) = buf[r];
  }
}

}  // namespace

const FftPlan<double>& fft_plan_d(int n) { return cached_plan<double>(n); }
const FftPlan<float>& fft_plan_f(int n) { return cached_plan<float>(n); }

template <typename R>
std::complex<R>* Fft2WorkspaceT<R>::col_buffer(int rows) {
  if (static_cast<int>(col_.size()) < rows) col_.resize(rows);
  return col_.data();
}

template <typename R>
std::complex<R>* Fft2WorkspaceT<R>::band_buffer(int elems) {
  if (static_cast<int>(band_.size()) < elems) band_.resize(elems);
  return band_.data();
}

template <typename R>
std::complex<R>* Fft2WorkspaceT<R>::scratch_for(const FftPlan<R>& plan) {
  const int need = plan.scratch_size();
  if (need == 0) return nullptr;
  if (static_cast<int>(scratch_.size()) < need) scratch_.resize(need);
  return scratch_.data();
}

template <typename R>
const std::complex<R>** Fft2WorkspaceT<R>::row_table(int n) {
  if (static_cast<int>(rows_.size()) < n) rows_.resize(n);
  return rows_.data();
}

template <typename R>
std::complex<R>* Fft2WorkspaceT<R>::plane_buffer(int elems) {
  if (static_cast<int>(plane_.size()) < elems) plane_.resize(elems);
  return plane_.data();
}

template class Fft2WorkspaceT<double>;
template class Fft2WorkspaceT<float>;

template <typename R>
Fft2WorkspaceT<R>& fft_thread_workspace() {
  static thread_local Fft2WorkspaceT<R> ws;
  return ws;
}

template Fft2WorkspaceT<double>& fft_thread_workspace<double>();
template Fft2WorkspaceT<float>& fft_thread_workspace<float>();

void fft2_inplace(Grid<cd>& g) {
  Fft2Workspace ws;
  fft2_dir(g, false, ws);
}

void ifft2_inplace(Grid<cd>& g) {
  Fft2Workspace ws;
  fft2_dir(g, true, ws);
}

void fft2_inplace(Grid<cd>& g, Fft2Workspace& ws) { fft2_dir(g, false, ws); }
void ifft2_inplace(Grid<cd>& g, Fft2Workspace& ws) { fft2_dir(g, true, ws); }

void fft2_plane(float* plane, int h, int w, bool inverse) {
  using cfl = std::complex<float>;
  auto* z = reinterpret_cast<cfl*>(plane);
  const FftPlan<float>& row_plan = fft_plan_f(w);
  for (int r = 0; r < h; ++r) {
    if (inverse) {
      row_plan.inverse(z + static_cast<std::ptrdiff_t>(r) * w);
    } else {
      row_plan.forward(z + static_cast<std::ptrdiff_t>(r) * w);
    }
  }
  const FftPlan<float>& col_plan = fft_plan_f(h);
  std::vector<cfl> buf(static_cast<std::size_t>(h));
  for (int c = 0; c < w; ++c) {
    for (int r = 0; r < h; ++r) buf[static_cast<std::size_t>(r)] = z[r * w + c];
    if (inverse) {
      col_plan.inverse(buf.data());
    } else {
      col_plan.forward(buf.data());
    }
    for (int r = 0; r < h; ++r) z[r * w + c] = buf[static_cast<std::size_t>(r)];
  }
  if (inverse) {
    const float scale = static_cast<float>(h) * static_cast<float>(w);
    const std::int64_t n = static_cast<std::int64_t>(h) * w * 2;
    for (std::int64_t i = 0; i < n; ++i) plane[i] *= scale;
  }
}

Grid<cd> fft2(const Grid<cd>& g) {
  Grid<cd> out = g;
  fft2_inplace(out);
  return out;
}

Grid<cd> ifft2(const Grid<cd>& g) {
  Grid<cd> out = g;
  ifft2_inplace(out);
  return out;
}

Grid<cd> fft2(const Grid<double>& g) {
  Grid<cd> out(g.rows(), g.cols());
  for (std::size_t i = 0; i < g.size(); ++i) out[i] = cd(g[i], 0.0);
  fft2_inplace(out);
  return out;
}

Grid<double> abs2(const Grid<cd>& g) {
  Grid<double> out(g.rows(), g.cols());
  for (std::size_t i = 0; i < g.size(); ++i) out[i] = norm2(g[i]);
  return out;
}

Grid<double> real_part(const Grid<cd>& g) {
  Grid<double> out(g.rows(), g.cols());
  for (std::size_t i = 0; i < g.size(); ++i) out[i] = g[i].real();
  return out;
}

}  // namespace nitho
