#include "nitho/model.hpp"

#include <cstring>

#include "common/check.hpp"
#include "nn/ops.hpp"
#include "nn/serialize.hpp"
#include "optics/resolution.hpp"

namespace nitho {
namespace {

// The real plane of a (1+j)-lifted encoding [P, F, 2] -> [P, F].  Fails
// closed unless every imaginary part equals its real part bit for bit.
nn::Tensor real_plane_of_lifted(const nn::Tensor& lifted) {
  nn::Tensor plane({lifted.dim(0), lifted.dim(1)});
  const std::int64_t n = plane.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const float re = lifted[2 * i], im = lifted[2 * i + 1];
    check(std::memcmp(&re, &im, sizeof(float)) == 0,
          "NithoModel: the encoding is not (1+j)-lifted (re != im)");
    plane[i] = re;
  }
  return plane;
}

CmlpConfig mlp_config(const NithoConfig& cfg) {
  CmlpConfig m;
  m.in_features = cfg.encoding.features;
  m.hidden = cfg.hidden;
  m.blocks = cfg.blocks;
  m.out = cfg.rank;
  m.seed = cfg.seed;
  return m;
}

}  // namespace

NithoModel::NithoModel(NithoConfig cfg, int tile_nm, double wavelength_nm,
                       double na)
    : cfg_(cfg),
      kdim_(cfg.kernel_dim > 0
                ? cfg.kernel_dim
                : ::nitho::kernel_dim(tile_nm, wavelength_nm, na)),
      encoded_leaf_(nn::make_leaf(
          real_plane_of_lifted(encode_coordinates(kdim_, kdim_, cfg.encoding)),
          false)),
      mlp_(mlp_config(cfg)) {
  check(kdim_ % 2 == 1, "kernel dimension must be odd");
  check(cfg_.rank >= 1, "rank must be positive");
}

nn::Var NithoModel::predict_kernels() const {
  nn::Var out = mlp_.forward(encoded_leaf_);     // [P, r, 2]
  out = nn::transpose01(out);                    // [r, P, 2]
  return nn::reshape(out, {cfg_.rank, kdim_, kdim_, 2});
}

std::vector<Grid<cd>> NithoModel::export_kernels() const {
  const nn::Var k = predict_kernels();
  std::vector<Grid<cd>> out;
  out.reserve(static_cast<std::size_t>(cfg_.rank));
  const std::int64_t plane = static_cast<std::int64_t>(kdim_) * kdim_;
  for (int i = 0; i < cfg_.rank; ++i) {
    Grid<cd> g(kdim_, kdim_);
    const float* src = k->value.data() + i * plane * 2;
    for (std::int64_t p = 0; p < plane; ++p) {
      g[static_cast<std::size_t>(p)] = cd(src[2 * p], src[2 * p + 1]);
    }
    out.push_back(std::move(g));
  }
  return out;
}

void NithoModel::save(const std::string& path) const {
  nn::save_parameters_file(path, parameters());
}

void NithoModel::load(const std::string& path) {
  nn::load_parameters_file(path, parameters());
}

}  // namespace nitho
