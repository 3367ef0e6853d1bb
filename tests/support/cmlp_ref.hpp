#pragma once
// Oracle for the fused complex-linear layer (nn::clinear, nn/ops.hpp): the
// CMLP's historical layer chain, cmatmul -> add_bias -> relu.  test::cmatmul
// is the pre-fusion complex matmul kept verbatim — planar split of both
// operands, the same four-GEMM fold schedule, merge back — so the
// bit-identity pins in test_nn and test_nitho have a fixed reference.  Do
// not "fix" or modernize it: its point is to preserve the historical
// arithmetic.  No library code calls it.

#include "nitho/cmlp.hpp"
#include "nn/autodiff.hpp"

namespace nitho::test {

/// Complex matmul [M,K,2] x [K,N,2] -> [M,N,2].
nn::Var cmatmul(const nn::Var& a, const nn::Var& b);

/// x + b with b broadcast over leading dims (b.numel must divide x.numel and
/// align with the trailing dims, e.g. [P,O,2] + [O,2]).
nn::Var add_bias(const nn::Var& x, const nn::Var& b);

/// One CMLP layer as the historical chain: add_bias(cmatmul(x, w), b), then
/// relu when crelu.
nn::Var clinear_chain(const nn::Var& x, const nn::Var& w, const nn::Var& b,
                      bool crelu);

/// Cmlp::forward built from clinear_chain over the model's own parameters
/// (entry, N CReLU blocks, closing layer).  input: complex [P, in, 2].
nn::Var cmlp_forward(const Cmlp& mlp, const nn::Var& input);

}  // namespace nitho::test
