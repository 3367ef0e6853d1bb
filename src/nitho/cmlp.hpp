#pragma once
// Complex-valued multilayer perceptron (paper Eq. 12):
//   CMLP : CLinear -> (CLinear -> CReLU) x N -> CLinear
// with CReLU(z) = ReLU(Re z) + i ReLU(Im z) (Eq. 11).  Each CLinear, with
// its CReLU where Eq. 12 has one, is one nn::clinear node (DESIGN.md §8.1).

#include <cstdint>
#include <vector>

#include "nn/autodiff.hpp"

namespace nitho {

struct CmlpConfig {
  int in_features = 128;  ///< complex input width
  int hidden = 64;        ///< complex hidden width
  int blocks = 2;         ///< N hidden (CLinear -> CReLU) blocks
  int out = 24;           ///< complex outputs per coordinate (kernel count r)
  std::uint64_t seed = 1;
};

class Cmlp {
 public:
  explicit Cmlp(const CmlpConfig& cfg);

  /// [P, in, 2] -> [P, out, 2].  A real input [P, in] stands for its
  /// (1+j)-lifted complex form, the encoding's (nn::clinear); it must not
  /// require grad.
  nn::Var forward(const nn::Var& input) const;

  std::vector<nn::Var> parameters() const;
  std::int64_t parameter_count() const;
  const CmlpConfig& config() const { return cfg_; }

 private:
  CmlpConfig cfg_;
  std::vector<nn::Var> weights_;  ///< [in, out, 2] per layer
  std::vector<nn::Var> biases_;   ///< [out, 2] per layer
};

}  // namespace nitho
