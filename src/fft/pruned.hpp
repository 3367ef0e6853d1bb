#pragma once
// Pruned 2-D transforms between a centered spectrum crop and a full s x s
// grid (DESIGN.md §6.3, §8.2).  One implementation serves the aerial engine
// (double) and the batched autodiff ops (float), so both run the same
// index map, band-row pass, row-major column pass and workspace, and get
// the same bits:
//
//   band_inverse   — inverse 2-D DFT of a grid whose only nonzero rows are
//                    the centered crop's (the SOCS field, the crop vjp);
//   band_intensity — its |.|^2 added to an accumulator, the field never
//                    stored (the SOCS intensity where no field is kept);
//   crop_forward   — the adjoint: forward 2-D DFT read only at the crop
//                    (the crop itself, the SOCS vjp).
//
// The inverse's column pass needs no placement: its first stage pair reads
// the band rows where the row pass left them, through a table of grid-row
// pointers in bit-reversed order, and a +0 register for every off-crop
// row; band_intensity's last pass squares its outputs into the caller's
// accumulator instead of storing them.  Both are pure data-movement cuts.
//
// Every pruning here is exact on the values a caller reads.  The pure data
// movement (bit-reversed order, the row table, the row-major column pass)
// changes no arithmetic, and an unread column changes nothing read.  A
// skipped zero row can at most flip the sign of a zero output
// (`x + (±0) == x` for x != 0), and callers either square it away or only
// ever compare with `==`, which equates ±0.

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

namespace pruned_detail {

// Radix-2 plans take their input at bit-reversed positions (the caller
// placed it there); Bluestein plans in natural order.
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

template <typename R>
void forward_columns(const FftPlan<R>& plan, std::complex<R>* x, int width,
                     std::complex<R>* scratch) {
  if (plan.bitrev_table() != nullptr) {
    plan.forward_columns_prerev(x, width, scratch);
  } else {
    plan.forward_columns(x, width, scratch);
  }
}

// The band-row pass shared by band_inverse and band_intensity: crop row
// a, filled and row-transformed (1/s applied) in ws's band buffer, and
// the row table the column pass reads them through — grid row g, holding
// crop row a = (g + kr/2) mod s when a < kr (the inverse of
// centered_to_dft_index), at table position bitrev(g) on radix-2 grids
// (g on Bluestein grids); every off-crop row is null, a zero row.
template <typename R, typename Fill>
const std::complex<R>* const* band_rows(const FftPlan<R>& plan, int kr,
                                        int kc, Fft2WorkspaceT<R>& ws,
                                        Fill&& fill) {
  using C = std::complex<R>;
  const int s = plan.size();
  const int* rev = plan.bitrev_table();
  const auto at = [rev](int i) { return rev != nullptr ? rev[i] : i; };
  C* staged = ws.col_buffer(kc);
  C* band = ws.band_buffer(kr * s);
  // The crop's columns ascend by 1 mod s: two runs, [col0, col0 + seg1)
  // and [0, kc - seg1).
  const int col0 = centered_to_dft_index(0, kc, s);
  const int seg1 = std::min(kc, s - col0);
  for (int a = 0; a < kr; ++a) {
    C* row = band + static_cast<std::ptrdiff_t>(a) * s;
    fill(a, staged);
    std::fill(row, row + s, C(0, 0));
    for (int c = 0; c < seg1; ++c) row[at(col0 + c)] = staged[c];
    for (int c = seg1; c < kc; ++c) row[at(c - seg1)] = staged[c];
  }
  inverse_many(plan, band, kr, ws.scratch_for(plan));
  const C** rows = ws.row_table(s);
  for (int g = 0; g < s; ++g) {
    const int a = (g + kr / 2) % s;
    rows[at(g)] = a < kr ? band + static_cast<std::ptrdiff_t>(a) * s
                         : nullptr;
  }
  return rows;
}

}  // namespace pruned_detail

/// Unnormalized inverse 2-D DFT of an s x s grid (s = plan.size()) whose
/// only nonzero entries are the centered kr x kc crop, written to the
/// row-major s x s plane `out` (every element written).  Crop entry (a, c)
/// sits at grid position
/// (centered_to_dft_index(a, kr, s), centered_to_dft_index(c, kc, s)).
/// fill(a, row) writes crop row a's kc entries to row[0..kc).
///
/// Rows outside the crop are never row-transformed: a zero row transforms
/// to zeros, which enter the column pass only additively.  The column pass
/// (FftPlan::inverse_columns_gather) reads the band rows where the row
/// pass left them and a +0 register for every other row, and writes
/// `out`: on radix-2 grids from 4 up no row is ever copied or zeroed into
/// it (the other grids place the rows first).  Each pass applies the
/// plan's 1/s; the column pass's output is then multiplied by s*s, which
/// undoes both.  For radix-2 s both passes take their input at
/// bit-reversed positions (fft.hpp bitrev_table()), so no transform runs
/// its permutation pass.  Uses `ws`'s column, band, row-table and scratch
/// buffers; fill must not use them, and `out` must not alias them.
template <typename R, typename Fill>
void band_inverse(const FftPlan<R>& plan, int kr, int kc,
                  Fft2WorkspaceT<R>& ws, Fill&& fill, std::complex<R>* out) {
  const int s = plan.size();
  const std::complex<R>* const* rows =
      pruned_detail::band_rows(plan, kr, kc, ws, fill);
  plan.inverse_columns_gather(rows, out, s, ws.scratch_for(plan),
                              static_cast<R>(s) * static_cast<R>(s));
}

/// acc[p] += |band_inverse(...)[p]|^2 for every pixel p of the s x s plane
/// (`acc` row-major s x s reals), without storing the field: the last
/// column pass adds re*re + im*im of each output — simd::abs2_accum's
/// expression — where band_inverse would store it
/// (FftPlan::intensity_columns_gather).  The bits equal band_inverse into
/// a plane followed by that accumulate.  The coherent-intensity term of
/// one SOCS kernel.  Runs its column passes in ws's plane buffer; uses the
/// same buffers as band_inverse besides, and fill must not use them.
template <typename R, typename Fill>
void band_intensity(const FftPlan<R>& plan, int kr, int kc,
                    Fft2WorkspaceT<R>& ws, Fill&& fill, R* acc) {
  const int s = plan.size();
  const std::complex<R>* const* rows =
      pruned_detail::band_rows(plan, kr, kc, ws, fill);
  plan.intensity_columns_gather(rows, ws.plane_buffer(s * s), s,
                                ws.scratch_for(plan),
                                static_cast<R>(s) * static_cast<R>(s), acc);
}

/// Unnormalized forward 2-D DFT of the s x s grid z (s = plan.size();
/// rows are transformed in place, so z is consumed), read only at the
/// centered kr x kc crop: emit(a, c, v) receives crop entry (a, c), a-major.
/// Rows run in full (every row feeds every crop column); only the kc crop
/// columns are column-transformed, copied row by row into a compact
/// row-major [s x kc] block.  Uses `ws`'s column and scratch buffers; emit
/// must not use them.
template <typename R, typename Emit>
void crop_forward(const FftPlan<R>& plan, std::complex<R>* z, int kr, int kc,
                  Fft2WorkspaceT<R>& ws, Emit&& emit) {
  using C = std::complex<R>;
  const int s = plan.size();
  const int* rev = plan.bitrev_table();
  C* scratch = ws.scratch_for(plan);
  plan.forward_many(z, s, scratch);
  C* block = ws.col_buffer(s * kc);
  const int col0 = centered_to_dft_index(0, kc, s);
  const int seg1 = std::min(kc, s - col0);
  for (int r = 0; r < s; ++r) {
    const C* zrow = z + static_cast<std::ptrdiff_t>(r) * s;
    C* dst = block + static_cast<std::ptrdiff_t>(rev != nullptr ? rev[r] : r) *
                         kc;
    std::copy_n(zrow + col0, seg1, dst);
    std::copy_n(zrow, kc - seg1, dst + seg1);
  }
  pruned_detail::forward_columns(plan, block, kc, scratch);
  for (int a = 0; a < kr; ++a) {
    const C* src =
        block + static_cast<std::ptrdiff_t>(centered_to_dft_index(a, kr, s)) *
                    kc;
    for (int c = 0; c < kc; ++c) emit(a, c, src[c]);
  }
}

}  // namespace nitho
