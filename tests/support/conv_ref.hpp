#pragma once
// Oracle for nn::conv2d (nn/ops_conv.hpp): the historical conv2d, kept
// verbatim — im2col, out = col * W^T through gemm_nt, and a backward whose
// W and x gradients run the zero-skip gemm_tn / gemm_nn on a transposed
// copy of the upstream gradient — over the scalar reference loops of
// support/gemm_ref.hpp.  The conv2d pins in test_nn compare the shipped
// op against it bit for bit.  Do not "fix" or modernize it: its point is
// to preserve the historical arithmetic.  No library code calls it.

#include "nn/autodiff.hpp"

namespace nitho::test {

/// Same-padded stride-1 2-D convolution.
/// x: [Cin, H, W]; w: [Cout, Cin, kh, kw] (odd kernels); b: [Cout].
nn::Var conv2d_ref(const nn::Var& x, const nn::Var& w, const nn::Var& b);

}  // namespace nitho::test
