#include "nitho/cmlp.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/ops.hpp"

namespace nitho {

Cmlp::Cmlp(const CmlpConfig& cfg) : cfg_(cfg) {
  check(cfg.in_features >= 1 && cfg.hidden >= 1 && cfg.out >= 1 &&
            cfg.blocks >= 0,
        "bad CMLP configuration");
  Rng rng(cfg.seed);
  auto make_layer = [&](int fan_in, int fan_out) {
    // Complex Glorot-style init: each of re/im gets variance 1/(2 fan_in) so
    // the complex pre-activations keep unit scale through depth.
    nn::Tensor w({fan_in, fan_out, 2});
    w.randn(rng, static_cast<float>(1.0 / std::sqrt(2.0 * fan_in)));
    weights_.push_back(nn::make_leaf(std::move(w), true));
    biases_.push_back(nn::make_leaf(nn::Tensor({fan_out, 2}), true));
  };
  make_layer(cfg.in_features, cfg.hidden);
  for (int b = 0; b < cfg.blocks; ++b) make_layer(cfg.hidden, cfg.hidden);
  make_layer(cfg.hidden, cfg.out);
}

nn::Var Cmlp::forward(const nn::Var& input) const {
  const nn::Tensor& x = input->value;
  check((x.ndim() == 3 && x.dim(2) == 2) || x.ndim() == 2,
        "CMLP input must be [P, in_features, 2] or real [P, in_features]");
  check(x.dim(1) == cfg_.in_features, "CMLP input width mismatch");
  // Entry CLinear (no activation, per Eq. 12).
  nn::Var h = nn::clinear(input, weights_[0], biases_[0], /*crelu=*/false);
  // (CLinear -> CReLU) x N.
  for (int b = 0; b < cfg_.blocks; ++b) {
    const auto l = static_cast<std::size_t>(b) + 1;
    h = nn::clinear(h, weights_[l], biases_[l], /*crelu=*/true);
  }
  // Closing CLinear.
  return nn::clinear(h, weights_.back(), biases_.back(), /*crelu=*/false);
}

std::vector<nn::Var> Cmlp::parameters() const {
  std::vector<nn::Var> out = weights_;
  out.insert(out.end(), biases_.begin(), biases_.end());
  return out;
}

std::int64_t Cmlp::parameter_count() const {
  return nn::parameter_count(parameters());
}

}  // namespace nitho
