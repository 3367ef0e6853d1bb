#pragma once
// Strip oracles for the pruned crop <-> grid transforms (fft/pruned.hpp).
// These are the column-strip band_inverse / crop_forward the library ran
// before its column pass went row-major, kept verbatim — the same band-row
// pass, the same bit-reversed transposed gathers into L1-sized column
// strips, the same per-strip *_many_prerev transforms — so the row-major
// versions, and every caller built on them, are pinned bit for bit against
// a fixed reference.  Do not "fix" or modernize them.  No library code
// calls them.

#include <algorithm>
#include <complex>
#include <cstddef>

#include "fft/fft.hpp"
#include "fft/pruned.hpp"

namespace nitho::test {

/// Columns per strip: an ~8 KB strip, at least 4 columns, at most s.
template <typename R>
int pruned_column_block(int s) {
  const int fit = 8192 / (s * static_cast<int>(sizeof(std::complex<R>)));
  return std::min(s, std::max(4, fit));
}

namespace strip_detail {

template <typename R>
void inverse_many(const FftPlan<R>& plan, std::complex<R>* x, int count,
                  std::complex<R>* scratch) {
  if (plan.bitrev_table() != nullptr) {
    plan.inverse_many_prerev(x, count, scratch);
  } else {
    plan.inverse_many(x, count, scratch);
  }
}

template <typename R>
void forward_many(const FftPlan<R>& plan, std::complex<R>* x, int count,
                  std::complex<R>* scratch) {
  if (plan.bitrev_table() != nullptr) {
    plan.forward_many_prerev(x, count, scratch);
  } else {
    plan.forward_many(x, count, scratch);
  }
}

}  // namespace strip_detail

/// The strip band_inverse: fill(a, row) writes crop row a; write(c0, cb,
/// cols, sc) consumes grid columns [c0, c0 + cb) with cols[q*s + r] =
/// grid (r, c0 + q) after both passes' 1/s, and sc = s*s.
template <typename R, typename Fill, typename Write>
void band_inverse_strip(const FftPlan<R>& plan, int kr, int kc,
                        Fft2WorkspaceT<R>& ws, Fill&& fill, Write&& write) {
  using C = std::complex<R>;
  const int s = plan.size();
  const int* rev = plan.bitrev_table();
  const auto at = [rev](int i) { return rev != nullptr ? rev[i] : i; };
  const int block = pruned_column_block<R>(s);
  C* cols = ws.col_buffer(block * s);
  C* band = ws.band_buffer(kr * s);
  C* scratch = ws.scratch_for(plan);
  const int col0 = centered_to_dft_index(0, kc, s);
  const int seg1 = std::min(kc, s - col0);
  for (int a = 0; a < kr; ++a) {
    C* row = band + static_cast<std::ptrdiff_t>(a) * s;
    fill(a, cols);
    std::fill(row, row + s, C(0, 0));
    for (int c = 0; c < seg1; ++c) row[at(col0 + c)] = cols[c];
    for (int c = seg1; c < kc; ++c) row[at(c - seg1)] = cols[c];
  }
  strip_detail::inverse_many(plan, band, kr, scratch);
  const R scale = static_cast<R>(s) * static_cast<R>(s);
  for (int c0 = 0; c0 < s; c0 += block) {
    const int cb = std::min(block, s - c0);
    std::fill(cols, cols + static_cast<std::ptrdiff_t>(cb) * s, C(0, 0));
    for (int a = 0; a < kr; ++a) {
      C* dst = cols + at(centered_to_dft_index(a, kr, s));
      const C* src = band + static_cast<std::ptrdiff_t>(a) * s + c0;
      for (int q = 0; q < cb; ++q)
        dst[static_cast<std::ptrdiff_t>(q) * s] = src[q];
    }
    strip_detail::inverse_many(plan, cols, cb, scratch);
    write(c0, cb, static_cast<const C*>(cols), scale);
  }
}

/// The strip band_inverse written to a row-major s x s plane the way the
/// SOCS field op wrote it: out(r, c) = cols[...] * s*s.
template <typename R, typename Fill>
void band_inverse_strip_plane(const FftPlan<R>& plan, int kr, int kc,
                              Fft2WorkspaceT<R>& ws, Fill&& fill,
                              std::complex<R>* out) {
  const int s = plan.size();
  band_inverse_strip(plan, kr, kc, ws, fill,
                     [&](int c0, int cb, const std::complex<R>* cols,
                         R scale) {
                       for (int rr = 0; rr < s; ++rr) {
                         std::complex<R>* d =
                             out + static_cast<std::ptrdiff_t>(rr) * s + c0;
                         for (int q = 0; q < cb; ++q)
                           d[q] = cols[q * s + rr] * scale;
                       }
                     });
}

/// The strip crop_forward: row pass in place on z, then the kc crop
/// columns gathered transposed into one strip and column-transformed.
template <typename R, typename Emit>
void crop_forward_strip(const FftPlan<R>& plan, std::complex<R>* z, int kr,
                        int kc, Fft2WorkspaceT<R>& ws, Emit&& emit) {
  using C = std::complex<R>;
  const int s = plan.size();
  const int* rev = plan.bitrev_table();
  C* scratch = ws.scratch_for(plan);
  plan.forward_many(z, s, scratch);
  C* strip = ws.col_buffer(kc * s);
  const int col0 = centered_to_dft_index(0, kc, s);
  const int seg1 = std::min(kc, s - col0);
  for (int r = 0; r < s; ++r) {
    const C* zrow = z + static_cast<std::ptrdiff_t>(r) * s;
    C* dst = strip + (rev != nullptr ? rev[r] : r);
    for (int c = 0; c < seg1; ++c)
      dst[static_cast<std::ptrdiff_t>(c) * s] = zrow[col0 + c];
    for (int c = seg1; c < kc; ++c)
      dst[static_cast<std::ptrdiff_t>(c) * s] = zrow[c - seg1];
  }
  strip_detail::forward_many(plan, strip, kc, scratch);
  for (int a = 0; a < kr; ++a) {
    const C* src = strip + centered_to_dft_index(a, kr, s);
    for (int c = 0; c < kc; ++c)
      emit(a, c, src[static_cast<std::ptrdiff_t>(c) * s]);
  }
}

}  // namespace nitho::test
