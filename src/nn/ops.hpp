#pragma once
// Differentiable operations: elementwise math, dense and complex dense
// algebra, shape utilities and losses.  Convolution lives in ops_conv.hpp,
// FFT-based ops in ops_fft.hpp.
//
// Complex convention: trailing dimension of size 2 = (re, im).

#include "nn/autodiff.hpp"

namespace nitho::nn {

// ---- elementwise -----------------------------------------------------------
Var add(const Var& a, const Var& b);          ///< same shape
Var sub(const Var& a, const Var& b);
Var scale(const Var& a, float s);
Var relu(const Var& a);                       ///< == CReLU on complex tensors
Var leaky_relu(const Var& a, float alpha = 0.1f);
Var sigmoid(const Var& a);
Var square(const Var& a);

// ---- reductions / losses ---------------------------------------------------
Var sum(const Var& a);                        ///< scalar
Var mean(const Var& a);                       ///< scalar
Var mse_loss(const Var& pred, const Tensor& target);  ///< Eq. (5) as a loss

/// Batched per-sample MSE with an ordered reduction over the leading batch
/// axis: pred/targets [B, ...] -> scalar sum_b MSE(pred[b], targets[b]),
/// accumulated per sample in double over pixels and then left-folded over B
/// in float — exactly the arithmetic of per-sample mse_loss nodes chained
/// through add(), so the value (and gradient) is bit-identical to the
/// legacy per-mask loss chain.  Callers divide by B themselves (the trainer
/// scales by 1/batch, like the legacy loop).
Var mse_loss_batch_ordered(const Var& pred, const Tensor& targets);

// ---- dense algebra ---------------------------------------------------------
/// One complex-linear layer of the CMLP (paper Eq. 12) as a single node:
/// y = x W + b, then CReLU when `crelu`.  x is complex [M,K,2], or real
/// [M,K] standing for the (1+j)-lifted input x + jx of the encoding (it
/// must not require grad); W is [K,N,2], b is [N,2]; y is [M,N,2].
/// Bit-identical, values and every gradient, to the historical chain of a
/// planar complex matmul, a broadcast bias add and relu (DESIGN.md §8.1;
/// the chain is kept as the test oracle in tests/support/cmlp_ref.hpp).
Var clinear(const Var& x, const Var& w, const Var& b, bool crelu);

// ---- shape utilities -------------------------------------------------------
Var reshape(const Var& a, std::vector<int> shape);
/// Swap the first two dimensions (rest treated as flat).
Var transpose01(const Var& a);
Var concat0(const Var& a, const Var& b);      ///< along dim 0

}  // namespace nitho::nn
