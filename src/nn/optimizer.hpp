#pragma once
// First-order optimizers over autodiff parameters.

#include <iosfwd>
#include <vector>

#include "nn/autodiff.hpp"

namespace nitho::nn {

/// Adam (Kingma & Ba) with bias correction; the paper's training procedure
/// optimizes complex weights by gradient descent, which in the re/im
/// parametrization is exactly this.
class Adam {
 public:
  explicit Adam(std::vector<Var> params, float lr = 1e-3f, float beta1 = 0.9f,
                float beta2 = 0.999f, float eps = 1e-8f);

  void step();
  void zero_grad();
  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

  /// Moment state for checkpointing: all first moments concatenated in
  /// parameter order, then all second moments.  Together with the step
  /// count and the parameter values this is the optimizer's entire state —
  /// restoring it resumes training bit-identically.  load_state throws
  /// check_error, leaving the moments untouched, on a size mismatch, a
  /// non-finite moment or a negative second moment.
  std::vector<float> dump_state() const;
  void load_state(const std::vector<float>& flat);
  long step_count() const { return t_; }
  void set_step_count(long t);

  /// Shape-tagged stream checkpoint (nn/serialize records): parameter
  /// count, per-parameter first and second moments with their shapes, the
  /// step count and the learning rate.  Unlike the flat vector above,
  /// load_state(istream) range-checks the stored moment count and every
  /// stored shape against the parameters this optimizer is bound to and
  /// throws check_error on mismatch (wrong model, wrong layer sizes), on
  /// a truncated/corrupt stream, on a non-finite moment, a negative second
  /// moment or a non-finite or non-positive learning rate — restored state
  /// is the whole of Adam, so a silent misassignment would corrupt
  /// training invisibly.  Nothing is restored unless everything checks.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  std::vector<Var> params_;
  std::vector<Tensor> m_, v_;
  float lr_, beta1_, beta2_, eps_;
  long t_ = 0;
};

/// Plain SGD with optional momentum (used in tests / ablations).
class Sgd {
 public:
  explicit Sgd(std::vector<Var> params, float lr = 1e-2f, float momentum = 0.0f);

  void step();
  void zero_grad();
  void set_lr(float lr) { lr_ = lr; }

 private:
  std::vector<Var> params_;
  std::vector<Tensor> vel_;
  float lr_, momentum_;
};

}  // namespace nitho::nn
