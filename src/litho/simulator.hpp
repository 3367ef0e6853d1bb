#pragma once
// Forward lithography simulators.
//
// All three produce the aerial intensity on an out_px x out_px grid covering
// the tile, from a centered cropped mask spectrum holding Fourier
// coefficients c_k = F(M)[k] / N^2 (DC = mean transmission):
//
//   socs_aerial    — Eq. (9): I = sum_i |F^-1(K_i . c)|^2 using decomposed
//                    kernels; the production path (golden data, Nitho).
//   abbe_aerial    — direct source-point summation; independent of the TCC
//                    code path, used to cross-validate SOCS.
//   hopkins_aerial_direct — Eq. (1) quadratic form over the TCC; O(kdim^4),
//                    tests only.
//
// Intensities are normalized so a clear mask images to 1.0 everywhere.

#include <vector>

#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "optics/socs.hpp"
#include "optics/tcc.hpp"

namespace nitho {

/// SOCS imaging.  spectrum must be a centered odd-sized crop at least as
/// large as the kernels; out_px must fit the kernel support.  One-shot
/// convenience over AerialEngine (litho/engine.hpp): callers that image
/// many spectra against one kernel set should hold an engine and use its
/// batch path instead.  The kernels are summed on the engine's sim_px
/// grid, bit-identical to the legacy per-kernel loop at sim_px; above it
/// the sum is resampled exactly to out_px, so it equals the legacy loop at
/// out_px to rounding (DESIGN.md §6.5).
Grid<double> socs_aerial(const std::vector<Grid<cd>>& kernels,
                         const Grid<cd>& spectrum, int out_px);

/// Abbe imaging: per-source-point coherent sums over the spectrum's own
/// support.  Slower; exercises none of the TCC/SOCS machinery.
Grid<double> abbe_aerial(const OpticalSystem& sys, int tile_nm,
                         const Grid<cd>& spectrum, int out_px);

/// Hopkins bilinear form evaluated directly from a TCC matrix.
Grid<double> hopkins_aerial_direct(const Grid<cd>& tcc, int kdim,
                                   const Grid<cd>& spectrum, int out_px);

}  // namespace nitho
