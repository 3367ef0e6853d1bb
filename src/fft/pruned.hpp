#pragma once
// Pruned 2-D transforms between a centered spectrum crop and a full s x s
// grid (DESIGN.md §6.3, §8.2).  One implementation serves the aerial engine
// (double) and the batched autodiff ops (float), so both run the same
// index map, band-row pass, bit-reversed gather, column blocking and
// workspace, and get the same bits:
//
//   band_inverse  — inverse 2-D DFT of a grid whose only nonzero rows are
//                   the centered crop's (the SOCS field, the crop vjp);
//   crop_forward  — its adjoint: forward 2-D DFT read only at the crop
//                   (the crop itself, the SOCS vjp).
//
// Every pruning here is exact on the values a caller reads.  The pure data
// movement (bit-reversed placement, column blocking) changes no arithmetic,
// and an unread column changes nothing read.  A skipped zero row can at
// most flip the sign of a zero output (`x + (±0) == x` for x != 0), and
// callers either square it away or only ever compare with `==`, which
// equates ±0.

#include <algorithm>
#include <complex>
#include <cstddef>

#include "fft/fft.hpp"

namespace nitho {

/// DFT index of centered-crop position `a` (crop size k) on an s-grid: the
/// crop's center k/2 lands on DC.  This is center_embed + ifftshift (or
/// fftshift + center_crop) folded into one map, for any parity of k and s.
inline int centered_to_dft_index(int a, int k, int s) {
  return (a - k / 2 + s) % s;
}

/// Columns per column-pass block: an ~8 KB strip that stays in L1 while the
/// per-stage twiddle walk is shared across the block.  Derived, not tuned.
template <typename R>
int pruned_column_block(int s) {
  const int fit = 8192 / (s * static_cast<int>(sizeof(std::complex<R>)));
  return std::min(s, std::max(4, fit));
}

namespace pruned_detail {

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

}  // namespace pruned_detail

/// Inverse 2-D DFT (the plan's 1/s per pass) of an s x s grid
/// (s = plan.size()) whose only nonzero entries are the centered kr x kc
/// crop.  Crop entry (a, c) sits at grid position
/// (centered_to_dft_index(a, kr, s), centered_to_dft_index(c, kc, s)).
///
///   fill(a, row)            writes crop row a's kc entries to row[0..kc);
///   write(c0, cb, cols, sc) consumes grid columns [c0, c0 + cb): cols[q*s
///                           + r] holds grid (r, c0 + q), and multiplying by
///                           sc = s*s gives the unnormalized inverse DFT.
///
/// Rows outside the crop are never transformed: a zero row transforms to
/// zeros, which enter the column pass only additively.  For radix-2 s both
/// passes take their input at bit-reversed positions (fft.hpp
/// bitrev_table()), so no transform runs its permutation pass.  Uses `ws`'s
/// band, column and scratch buffers; the callbacks must not use them.
template <typename R, typename Fill, typename Write>
void band_inverse(const FftPlan<R>& plan, int kr, int kc,
                  Fft2WorkspaceT<R>& ws, Fill&& fill, Write&& write) {
  using C = std::complex<R>;
  const int s = plan.size();
  const int* rev = plan.bitrev_table();
  const auto at = [rev](int i) { return rev != nullptr ? rev[i] : i; };
  const int block = pruned_column_block<R>(s);
  // The column strip doubles as fill's staging row (block * s >= s >= kc).
  C* cols = ws.col_buffer(block * s);
  C* band = ws.band_buffer(kr * s);
  C* scratch = ws.scratch_for(plan);
  // The crop's columns ascend by 1 mod s: two runs, [col0, col0 + seg1)
  // and [0, kc - seg1).
  const int col0 = centered_to_dft_index(0, kc, s);
  const int seg1 = std::min(kc, s - col0);
  for (int a = 0; a < kr; ++a) {
    C* row = band + static_cast<std::ptrdiff_t>(a) * s;
    fill(a, cols);
    std::fill(row, row + s, C(0, 0));
    for (int c = 0; c < seg1; ++c) row[at(col0 + c)] = cols[c];
    for (int c = seg1; c < kc; ++c) row[at(c - seg1)] = cols[c];
  }
  pruned_detail::inverse_many(plan, band, kr, scratch);
  const R scale = static_cast<R>(s) * static_cast<R>(s);
  for (int c0 = 0; c0 < s; c0 += block) {
    const int cb = std::min(block, s - c0);
    // Off-crop rows are the +0 a zeroed grid's untransformed rows held.
    std::fill(cols, cols + static_cast<std::ptrdiff_t>(cb) * s, C(0, 0));
    for (int a = 0; a < kr; ++a) {
      C* dst = cols + at(centered_to_dft_index(a, kr, s));
      const C* src = band + static_cast<std::ptrdiff_t>(a) * s + c0;
      for (int q = 0; q < cb; ++q)
        dst[static_cast<std::ptrdiff_t>(q) * s] = src[q];
    }
    pruned_detail::inverse_many(plan, cols, cb, scratch);
    write(c0, cb, static_cast<const C*>(cols), scale);
  }
}

/// Unnormalized forward 2-D DFT of the s x s grid z (s = plan.size();
/// rows are transformed in place, so z is consumed), read only at the
/// centered kr x kc crop: emit(a, c, v) receives crop entry (a, c), a-major.
/// Rows run in full (every row feeds every crop column); only the kc crop
/// columns are column-transformed, as one strip.  Uses `ws`'s column and
/// scratch buffers; emit must not use them.
template <typename R, typename Emit>
void crop_forward(const FftPlan<R>& plan, std::complex<R>* z, int kr, int kc,
                  Fft2WorkspaceT<R>& ws, Emit&& emit) {
  using C = std::complex<R>;
  const int s = plan.size();
  const int* rev = plan.bitrev_table();
  C* scratch = ws.scratch_for(plan);
  plan.forward_many(z, s, scratch);
  C* strip = ws.col_buffer(kc * s);
  const int col0 = centered_to_dft_index(0, kc, s);
  const int seg1 = std::min(kc, s - col0);
  // Row-major gather: one sequential pass over the grid; the strided
  // writes land in the L1-resident strip.
  for (int r = 0; r < s; ++r) {
    const C* zrow = z + static_cast<std::ptrdiff_t>(r) * s;
    C* dst = strip + (rev != nullptr ? rev[r] : r);
    for (int c = 0; c < seg1; ++c)
      dst[static_cast<std::ptrdiff_t>(c) * s] = zrow[col0 + c];
    for (int c = seg1; c < kc; ++c)
      dst[static_cast<std::ptrdiff_t>(c) * s] = zrow[c - seg1];
  }
  pruned_detail::forward_many(plan, strip, kc, scratch);
  for (int a = 0; a < kr; ++a) {
    const C* src = strip + centered_to_dft_index(a, kr, s);
    for (int c = 0; c < kc; ++c)
      emit(a, c, src[static_cast<std::ptrdiff_t>(c) * s]);
  }
}

}  // namespace nitho
