#pragma once
// Per-mask oracles for the batched nn ops (nn/ops_fft.hpp) and the batched
// trainer (nitho/trainer.hpp).  These are the pre-batching per-mask ops and
// training loop, kept verbatim — same arithmetic, same dense transforms,
// same accumulation order — so the bit-identity pins in test_nn,
// test_nitho and test_opc have a fixed reference.  Do not "fix" or
// modernize them: their point is to preserve the historical arithmetic.
// No library code calls them; a batch of one is the shipped per-mask path.

#include "nitho/model.hpp"
#include "nitho/trainer.hpp"
#include "nn/autodiff.hpp"

namespace nitho::test {

/// kernels: [r, n, m, 2]; spectrum: constant [n, m, 2] (centered crop of the
/// mask's Fourier coefficients).  Returns the coherent fields [r, S, S, 2]
/// on the out_px training grid, scaled like litho::socs_aerial.
nn::Var socs_field(const nn::Var& kernels, const nn::Tensor& spectrum,
                   int out_px);

/// fields [r, S, S, 2] -> intensity [S, S]: sum over kernels of |E|^2.
nn::Var abs2_sum0(const nn::Var& fields);

/// Differentiable mask -> Fourier-coefficient crop: mask [S, S] real ->
/// centered crop [n, n, 2] of DFT(mask)/S^2.
nn::Var fft2c_crop(const nn::Var& mask, int crop);

/// Companion to socs_field with the roles swapped: constant kernels
/// [r, n, n, 2], differentiable spectrum [n, n, 2] -> fields [r, S, S, 2].
nn::Var socs_field_from_spectrum(const nn::Var& spectrum,
                                 const nn::Tensor& kernels, int out_px);

/// The pre-batching Algorithm-1 training loop: one socs_field / abs2_sum0 /
/// mse_loss chain per mask per step, reduced through nn::add().  The
/// batched train_nitho must reproduce its loss trajectory and trained
/// weights bit for bit at a fixed seed.
TrainStats legacy_train_nitho(NithoModel& model, const TrainingSet& set,
                              const NithoTrainConfig& cfg);

}  // namespace nitho::test
