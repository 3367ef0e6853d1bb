#pragma once
// The Nitho model: a coordinate-based complex neural field over the optical
// kernel support.  It owns the (constant) positional-encoded coordinates and
// the CMLP; predict_kernels() re-evaluates the field, export_kernels()
// detaches the prediction for the SOCS-only fast-lithography path.

#include <cstdint>
#include <string>
#include <vector>

#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "nitho/cmlp.hpp"
#include "nitho/encoding.hpp"

namespace nitho {

struct NithoConfig {
  int kernel_dim = 0;   ///< odd; 0 derives Eq. 10 from (tile, lambda, NA)
  int rank = 24;        ///< number of predicted kernels r
  EncodingConfig encoding;
  int hidden = 64;
  int blocks = 2;
  std::uint64_t seed = 1;
};

class NithoModel {
 public:
  /// tile/lambda/na are used when cfg.kernel_dim == 0 (the physics-informed
  /// default); pass cfg.kernel_dim explicitly for the Fig. 6(b) sweep.
  NithoModel(NithoConfig cfg, int tile_nm, double wavelength_nm, double na);

  int kernel_dim() const { return kdim_; }
  int rank() const { return cfg_.rank; }
  const NithoConfig& config() const { return cfg_; }

  /// Differentiable kernel prediction: [r, n, m, 2] (Algorithm 1 line 8).
  nn::Var predict_kernels() const;

  /// Detached kernels in the litho substrate's format (fast lithography).
  std::vector<Grid<cd>> export_kernels() const;

  std::vector<nn::Var> parameters() const { return mlp_.parameters(); }
  std::int64_t parameter_count() const { return mlp_.parameter_count(); }
  std::int64_t parameter_bytes() const {
    return parameter_count() * static_cast<std::int64_t>(sizeof(float));
  }

  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  NithoConfig cfg_;
  int kdim_;
  /// Cached constant leaf over the encoding's real plane [n*m, F]: every
  /// EncodingKind lifts real features by (1+j), so re == im and the CMLP's
  /// entry layer takes the real plane (nn::clinear).  Built in the
  /// constructor (outside any GraphArena scope) so per-step training
  /// graphs neither copy the encoding nor recycle this node.
  nn::Var encoded_leaf_;
  Cmlp mlp_;
};

}  // namespace nitho
