#include "nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "nn/serialize.hpp"

namespace nitho::nn {
namespace {

// Restored moments must be finite, and second moments nonnegative (the
// update takes their square root): a NaN or Inf would poison every later
// step.
void check_moments(const float* m, const float* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    check(std::isfinite(m[i]) && std::isfinite(v[i]),
          "Adam::load_state: non-finite moment");
    check(v[i] >= 0.0f, "Adam::load_state: negative second moment");
  }
}

}  // namespace

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  for (const Var& p : params_) {
    check(p != nullptr && p->requires_grad, "Adam: non-trainable parameter");
    m_.push_back(Tensor::zeros_like(p->value));
    v_.push_back(Tensor::zeros_like(p->value));
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Node& p = *params_[i];
    if (p.grad.numel() != p.value.numel()) continue;  // never touched
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    simd::adam_update(p.value.data(), m.data(), v.data(), p.grad.data(),
                      p.value.numel(), beta1_, beta2_, bc1, bc2, lr_, eps_);
  }
}

std::vector<float> Adam::dump_state() const {
  std::vector<float> flat;
  for (const Tensor& m : m_) {
    flat.insert(flat.end(), m.data(), m.data() + m.numel());
  }
  for (const Tensor& v : v_) {
    flat.insert(flat.end(), v.data(), v.data() + v.numel());
  }
  return flat;
}

void Adam::load_state(const std::vector<float>& flat) {
  std::int64_t total = 0;
  for (const Tensor& m : m_) total += m.numel();
  check(static_cast<std::int64_t>(flat.size()) == 2 * total,
        "Adam::load_state: size mismatch");
  check_moments(flat.data(), flat.data() + total, total);
  const float* src = flat.data();
  for (Tensor& m : m_) {
    std::copy(src, src + m.numel(), m.data());
    src += m.numel();
  }
  for (Tensor& v : v_) {
    std::copy(src, src + v.numel(), v.data());
    src += v.numel();
  }
}

void Adam::save_state(std::ostream& os) const {
  write_u64(os, static_cast<std::uint64_t>(params_.size()));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    write_tensor(os, m_[i]);
    write_tensor(os, v_[i]);
  }
  write_u64(os, static_cast<std::uint64_t>(t_));
  write_f32(os, lr_);
}

void Adam::load_state(std::istream& is) {
  const std::uint64_t count = read_u64(is);
  check(count == params_.size(),
        "Adam::load_state: stored moment count does not match the bound "
        "parameters");
  // Validate the whole stream against the bound parameters before touching
  // any moment: a mismatch mid-stream must not leave the optimizer half
  // restored.
  std::vector<Tensor> m, v;
  m.reserve(params_.size());
  v.reserve(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor mi = read_tensor(is);
    Tensor vi = read_tensor(is);
    check(mi.shape() == params_[i]->value.shape() &&
              vi.shape() == params_[i]->value.shape(),
          "Adam::load_state: stored moment shape does not match the bound "
          "parameter");
    check_moments(mi.data(), vi.data(), mi.numel());
    m.push_back(std::move(mi));
    v.push_back(std::move(vi));
  }
  const std::uint64_t t = read_u64(is);
  check(t <= static_cast<std::uint64_t>(std::numeric_limits<long>::max()),
        "Adam::load_state: step count out of range");
  const float lr = read_f32(is);
  check(std::isfinite(lr) && lr > 0.0f,
        "Adam::load_state: learning rate must be finite and positive");
  m_ = std::move(m);
  v_ = std::move(v);
  t_ = static_cast<long>(t);
  lr_ = lr;
}

void Adam::set_step_count(long t) {
  check(t >= 0, "Adam::set_step_count: negative step count");
  t_ = t;
}

void Adam::zero_grad() { nn::zero_grad(params_); }

Sgd::Sgd(std::vector<Var> params, float lr, float momentum)
    : params_(std::move(params)), lr_(lr), momentum_(momentum) {
  for (const Var& p : params_) {
    check(p != nullptr && p->requires_grad, "Sgd: non-trainable parameter");
    vel_.push_back(Tensor::zeros_like(p->value));
  }
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Node& p = *params_[i];
    if (p.grad.numel() != p.value.numel()) continue;
    const std::int64_t n = p.value.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      vel_[i][j] = momentum_ * vel_[i][j] - lr_ * p.grad[j];
      p.value[j] += vel_[i][j];
    }
  }
}

void Sgd::zero_grad() { nn::zero_grad(params_); }

}  // namespace nitho::nn
