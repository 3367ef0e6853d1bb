#pragma once
// FFT-backed differentiable ops.  The batched ops are the only SOCS path:
// a batch of one is the per-mask case.
//
//   socs_intensity_batch — Algorithm 1 lines 11-12 in one node:
//                      I = sum_i |F^-1(K_i . F(M))|^2 for every mask of the
//                      batch, with the (constant) cropped mask spectra
//                      folded in and the gradient flowing to the kernels
//                      (training, NithoTrainer).
//   fft2c_crop_batch / socs_intensity_from_spectrum_batch — the same imaging
//                      chain with the gradient flowing to the mask pixels
//                      (inverse lithography, opc::OpcEngine).
//   socs_field_batch / socs_field_from_spectrum_batch / abs2_sum0_batch —
//                      the same model as two nodes, fields then intensity,
//                      for callers that time or read the fields themselves.
//                      The intensity nodes share their per-plane arithmetic
//                      and give the same bits.
//   spectral_conv2d  — the Fourier Neural Operator mixing layer used by the
//                      DOINN-like baseline.
//
// Each batched op is pinned bit for bit against a verbatim per-mask oracle
// (tests/support/per_mask_ref.hpp): one graph node per mask, reduced in
// the order the batched backward reproduces.
//
// All complex tensors are interleaved (trailing dim 2), matching
// std::complex<float> layout so FFT plans run in place.

#include "nn/autodiff.hpp"

namespace nitho::nn {

/// SOCS fields over a whole mask batch in one graph node: kernels
/// [r, n, m, 2] (differentiable), spectra [B, n, m, 2] (constant centered
/// crops of the masks' Fourier coefficients) -> fields [B, r, S, S, 2] on
/// the out_px grid, scaled like litho::socs_aerial.  Per (mask, kernel)
/// plane the arithmetic is bit-identical to the per-mask oracle
/// test::socs_field; the inverse FFT prunes structurally zero rows and the
/// adjoint prunes unread columns (fft/pruned.hpp, DESIGN.md §8.2), FFT
/// plans are hoisted out of the plane loop, and each worker thread reuses
/// its own FFT workspace, so steady-state training steps allocate nothing
/// here.  The kernel-gradient accumulation runs the batch in descending
/// order, matching the reverse-topological order of a chain of per-mask
/// nodes.  The backward pass transforms node.grad in place (the output
/// gradient is consumed — never read it after backward()).
Var socs_field_batch(const Var& kernels, const Tensor& spectra, int out_px);

/// fields [B, r, S, S, 2] -> intensities [B, S, S]: the sum over kernels of
/// |E|^2, accumulated in kernel index order per sample (the summation order
/// of the oracle test::abs2_sum0, so values are bit-identical).
Var abs2_sum0_batch(const Var& fields);

/// abs2_sum0_batch(socs_field_batch(kernels, spectra, out_px)) as one graph
/// node, bit for bit: intensities [B, S, S], the gradient flowing to the
/// kernels.  Each sample runs its kernels in ascending order and adds each
/// field plane's |E|^2 while the plane is still in cache.  The fields are
/// kept ([B, r, S, S, 2], recycled through the graph arena) only when the
/// kernels require a gradient, since only a backward reads them; otherwise
/// each plane is dropped once added.  The backward forms each plane's
/// field gradient in a per-thread plane buffer just before its adjoint
/// transform, so no [B, r, S, S] gradient is ever stored; per kernel the
/// batch accumulates in descending order, as in socs_field_batch.
Var socs_intensity_batch(const Var& kernels, const Tensor& spectra,
                         int out_px);

/// FNO spectral convolution: x [Cin, H, W] real, w [Cout, Cin, mh, mw, 2]
/// complex mode weights (centered layout).  Returns [Cout, H, W] real.
Var spectral_conv2d(const Var& x, const Var& w);

/// Differentiable mask -> Fourier-coefficient crop over a whole mask batch
/// in one graph node: masks [B, S, S] real -> spectra [B, n, n, 2], the
/// centered crop of DFT(mask)/S^2 (the golden pipeline's normalization).
/// Enables inverse lithography: gradients flow from the SOCS imaging loss
/// back into mask pixels.  Per sample the arithmetic is bit-identical to
/// the oracle test::fft2c_crop; the forward column pass transforms only the
/// crop's wrapped columns (unread columns never affect read values) and the
/// adjoint's inverse prunes structurally zero rows (fft/pruned.hpp,
/// DESIGN.md §8.2), FFT plans are hoisted, and scratch planes come from the
/// graph arena, so steady-state OPC steps allocate nothing here.
Var fft2c_crop_batch(const Var& masks, int crop);

/// socs_field_batch with the roles swapped: differentiable spectra
/// [B, n, n, 2], constant kernels [r, n, n, 2] -> fields [B, r, S, S, 2].
/// Per (mask, kernel) plane bit-identical to the oracle
/// test::socs_field_from_spectrum; spectrum-gradient accumulation runs
/// kernels in ascending order per sample, matching the oracle's serial
/// kernel loop.  The backward pass transforms node.grad in place (the
/// output gradient is consumed — never read it after backward()).
Var socs_field_from_spectrum_batch(const Var& spectra, const Tensor& kernels,
                                   int out_px);

/// abs2_sum0_batch(socs_field_from_spectrum_batch(spectra, kernels, out_px))
/// as one graph node, bit for bit: intensities [B, S, S], the gradient
/// flowing to the spectra.  Forward, field keeping and backward as in
/// socs_intensity_batch; per sample the kernels accumulate in ascending
/// order, as in socs_field_from_spectrum_batch.
Var socs_intensity_from_spectrum_batch(const Var& spectra,
                                       const Tensor& kernels, int out_px);

}  // namespace nitho::nn
