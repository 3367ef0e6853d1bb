#pragma once
// FFT-backed differentiable ops.
//
//   socs_field     — Algorithm 1 line 11: E_i = F^-1(K_i . F(M)) for every
//                    predicted kernel, with the (constant) cropped mask
//                    spectrum folded in.  Linear in K, so its vjp is the
//                    adjoint transform (unnormalized forward DFT + crop).
//   abs2_sum0      — Algorithm 1 line 12: I = sum_i |E_i|^2.
//   spectral_conv2d— the Fourier Neural Operator mixing layer used by the
//                    DOINN-like baseline.
//
// All complex tensors are interleaved (trailing dim 2), matching
// std::complex<float> layout so FFT plans run in place.

#include "nn/autodiff.hpp"

namespace nitho::nn {

/// kernels: [r, n, m, 2]; spectrum: constant [n, m, 2] (centered crop of the
/// mask's Fourier coefficients).  Returns the coherent fields [r, S, S, 2]
/// on the out_px training grid, scaled like litho::socs_aerial.
Var socs_field(const Var& kernels, const Tensor& spectrum, int out_px);

/// Batched socs_field over a whole mask batch in one graph node: kernels
/// [r, n, m, 2], spectra [B, n, m, 2] -> fields [B, r, S, S, 2].  Per
/// (mask, kernel) plane the arithmetic is bit-identical to socs_field;
/// the inverse FFT prunes structurally zero rows and the adjoint prunes
/// unread columns (fft/pruned.hpp, DESIGN.md §8.2), FFT plans are hoisted
/// out of the plane loop, and each worker thread reuses its own FFT
/// workspace, so steady-state training steps allocate nothing here.  The
/// kernel-gradient accumulation runs the batch in descending order,
/// matching the reverse-topological order of the legacy per-mask graph.
/// The backward pass transforms node.grad in place (the output gradient is
/// consumed — never read it after backward()).
Var socs_field_batch(const Var& kernels, const Tensor& spectra, int out_px);

/// fields [r, S, S, 2] -> intensity [S, S]: sum over kernels of |E|^2.
Var abs2_sum0(const Var& fields);

/// Batched abs2_sum0: fields [B, r, S, S, 2] -> intensities [B, S, S],
/// accumulated over kernels in index order per sample (same summation order
/// as the per-mask op, so values are bit-identical).
Var abs2_sum0_batch(const Var& fields);

/// FNO spectral convolution: x [Cin, H, W] real, w [Cout, Cin, mh, mw, 2]
/// complex mode weights (centered layout).  Returns [Cout, H, W] real.
Var spectral_conv2d(const Var& x, const Var& w);

/// Differentiable mask -> Fourier-coefficient crop: mask [S, S] real ->
/// centered crop [n, n, 2] of DFT(mask)/S^2 (the same normalization as the
/// golden pipeline).  Enables inverse lithography: gradients flow from the
/// SOCS imaging loss back into mask pixels.
Var fft2c_crop(const Var& mask, int crop);

/// Companion to socs_field with the roles swapped: constant kernels
/// [r, n, n, 2], differentiable spectrum [n, n, 2] -> fields [r, S, S, 2].
Var socs_field_from_spectrum(const Var& spectrum, const Tensor& kernels,
                             int out_px);

/// Batched fft2c_crop over a whole mask batch in one graph node: masks
/// [B, S, S] -> spectra [B, n, n, 2].  Per sample the arithmetic is
/// bit-identical to fft2c_crop; the forward column pass transforms only the
/// crop's wrapped columns (unread columns never affect read values) and the
/// adjoint's inverse prunes structurally zero rows (fft/pruned.hpp,
/// DESIGN.md §8.2), FFT plans are hoisted, and scratch planes come from the
/// graph arena, so steady-state OPC steps allocate nothing here.
Var fft2c_crop_batch(const Var& masks, int crop);

/// Batched socs_field_from_spectrum: differentiable spectra [B, n, n, 2],
/// constant kernels [r, n, n, 2] -> fields [B, r, S, S, 2].  Per
/// (mask, kernel) plane bit-identical to the per-mask op; spectrum-gradient
/// accumulation runs kernels in ascending order per sample, matching the
/// per-mask loop.  The backward pass transforms node.grad in place (the
/// output gradient is consumed — never read it after backward()).
Var socs_field_from_spectrum_batch(const Var& spectra, const Tensor& kernels,
                                   int out_px);

}  // namespace nitho::nn
