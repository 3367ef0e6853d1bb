#include "opc/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"
#include "fft/spectral.hpp"
#include "io/tensor_io.hpp"
#include "metrics/metrics.hpp"
#include "nn/ops.hpp"
#include "nn/ops_fft.hpp"

namespace nitho::opc {

namespace {

// Checkpoint header: see OpcCheckpoint doc.  Integers ride in floats, which
// is exact below 2^24 — far beyond any real iteration count (checked on
// save).  resist_threshold round-trips through float; OPC thresholds are
// short decimals and survive, but exotic doubles would lose low bits.
constexpr float kCheckpointVersion = 1.0f;
constexpr std::size_t kHeaderFloats = 13;
constexpr long kMaxExactLong = 1 << 24;

}  // namespace

void OpcCheckpoint::save(const std::string& path) const {
  const std::size_t n = intended.size();
  check(theta.size() == n && adam_m.size() == n && adam_v.size() == n,
        "OpcCheckpoint::save: inconsistent state sizes");
  check(iteration < kMaxExactLong && adam_step < kMaxExactLong,
        "OpcCheckpoint::save: step count exceeds float-exact range");
  std::vector<float> flat;
  flat.reserve(kHeaderFloats + 4 * n + losses.size());
  flat.push_back(kCheckpointVersion);
  flat.push_back(static_cast<float>(config.mask_px));
  flat.push_back(static_cast<float>(config.sim_px));
  flat.push_back(config.lr);
  flat.push_back(config.bin_weight);
  flat.push_back(config.theta_init);
  flat.push_back(config.target_bright);
  flat.push_back(config.target_dark);
  flat.push_back(static_cast<float>(config.resist_threshold));
  flat.push_back(static_cast<float>(batch));
  flat.push_back(static_cast<float>(iteration));
  flat.push_back(static_cast<float>(adam_step));
  flat.push_back(static_cast<float>(losses.size()));
  for (const std::vector<float>* part : {&intended, &theta, &adam_m, &adam_v,
                                         &losses}) {
    flat.insert(flat.end(), part->begin(), part->end());
  }
  save_floats(path, flat);
}

OpcCheckpoint OpcCheckpoint::load(const std::string& path) {
  const std::vector<float> flat = load_floats(path);
  check(flat.size() >= kHeaderFloats, "OpcCheckpoint::load: truncated file");
  check(flat[0] == kCheckpointVersion,
        "OpcCheckpoint::load: unsupported version");
  // Every float of the file is finite in a valid checkpoint except the
  // loss trajectory: the header before its integer casts, then the
  // intents, thetas and moments.
  const auto finite = [&](std::size_t begin, std::size_t end) {
    return std::all_of(flat.begin() + static_cast<std::ptrdiff_t>(begin),
                       flat.begin() + static_cast<std::ptrdiff_t>(end),
                       [](float v) { return std::isfinite(v); });
  };
  check(finite(0, kHeaderFloats),
        "OpcCheckpoint::load: non-finite header or config value");
  OpcCheckpoint ck;
  ck.config.mask_px = static_cast<int>(flat[1]);
  ck.config.sim_px = static_cast<int>(flat[2]);
  ck.config.lr = flat[3];
  ck.config.bin_weight = flat[4];
  ck.config.theta_init = flat[5];
  ck.config.target_bright = flat[6];
  ck.config.target_dark = flat[7];
  ck.config.resist_threshold = static_cast<double>(flat[8]);
  ck.batch = static_cast<int>(flat[9]);
  ck.iteration = static_cast<long>(flat[10]);
  ck.adam_step = static_cast<long>(flat[11]);
  const std::size_t losses = static_cast<std::size_t>(flat[12]);
  check(ck.config.mask_px > 0 && ck.config.sim_px > 0 && ck.batch > 0,
        "OpcCheckpoint::load: corrupt header");
  const std::size_t n = static_cast<std::size_t>(ck.batch) *
                        ck.config.mask_px * ck.config.mask_px;
  check(flat.size() == kHeaderFloats + 4 * n + losses,
        "OpcCheckpoint::load: size mismatch");
  check(finite(kHeaderFloats, kHeaderFloats + 4 * n),
        "OpcCheckpoint::load: non-finite intent, theta or Adam moment");
  auto take = [&](std::size_t offset, std::size_t count) {
    return std::vector<float>(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                              flat.begin() +
                                  static_cast<std::ptrdiff_t>(offset + count));
  };
  ck.intended = take(kHeaderFloats, n);
  ck.theta = take(kHeaderFloats + n, n);
  ck.adam_m = take(kHeaderFloats + 2 * n, n);
  ck.adam_v = take(kHeaderFloats + 3 * n, n);
  ck.losses = take(kHeaderFloats + 4 * n, losses);
  return ck;
}

OpcEngine::OpcEngine(std::shared_ptr<const std::vector<Grid<cd>>> kernels,
                     OpcConfig config)
    : config_(config), kernels_(std::move(kernels)) {
  check(kernels_ != nullptr && !kernels_->empty(), "OpcEngine: no kernels");
  kdim_ = (*kernels_)[0].rows();
  check(kdim_ >= 1 && kdim_ % 2 == 1, "OpcEngine: kernel dim must be odd");
  for (const Grid<cd>& k : *kernels_) {
    check(k.rows() == kdim_ && k.cols() == kdim_,
          "OpcEngine: kernels must be square and uniform");
    // A NaN or Inf kernel tap would spread through every aerial and every
    // gradient of the job; refuse it here, as FastLitho does.
    check(std::all_of(k.begin(), k.end(),
                      [](const cd& z) {
                        return std::isfinite(z.real()) &&
                               std::isfinite(z.imag());
                      }),
          "OpcEngine: non-finite kernel value");
  }
  const int r = static_cast<int>(kernels_->size());
  kt_ = nn::Tensor({r, kdim_, kdim_, 2});
  for (int i = 0; i < r; ++i) {
    const Grid<cd>& k = (*kernels_)[i];
    for (std::size_t p = 0; p < k.size(); ++p) {
      const std::int64_t base =
          (static_cast<std::int64_t>(i) * static_cast<std::int64_t>(k.size()) +
           static_cast<std::int64_t>(p)) *
          2;
      kt_[base] = static_cast<float>(k[p].real());
      kt_[base + 1] = static_cast<float>(k[p].imag());
    }
  }
}

void OpcEngine::bind(int batch, std::vector<float> intended,
                     std::vector<float> theta) {
  const int s = config_.mask_px;
  check(config_.sim_px >= kdim_, "OpcEngine: sim_px below kernel support");
  check(s >= config_.sim_px && s % config_.sim_px == 0,
        "OpcEngine: mask_px must be a multiple of sim_px");
  check(s >= kdim_, "OpcEngine: mask_px below kernel support");
  const std::size_t n = static_cast<std::size_t>(batch) * s * s;
  check(intended.size() == n && theta.size() == n,
        "OpcEngine: state size mismatch");

  batch_ = batch;
  intended_ = std::move(intended);
  nn::Tensor t({batch, s, s});
  for (std::size_t i = 0; i < n; ++i)
    t[static_cast<std::int64_t>(i)] = theta[i];
  vtheta_ = nn::make_leaf(std::move(t), /*requires_grad=*/true);
  opt_ = std::make_unique<nn::Adam>(std::vector<nn::Var>{vtheta_}, config_.lr);

  // Desired aerial: bright where the design prints, dark elsewhere, pushed
  // past the resist threshold with margin (examples/inverse_litho.cpp).
  const int sim = config_.sim_px;
  const int factor = s / sim;
  targets_ = nn::Tensor({batch, sim, sim});
  for (int b = 0; b < batch; ++b) {
    Grid<double> g(s, s);
    for (std::size_t i = 0; i < g.size(); ++i)
      g[i] = intended_[static_cast<std::size_t>(b) * s * s + i];
    const Grid<double> down = downsample_area(g, factor);
    for (std::size_t i = 0; i < down.size(); ++i) {
      targets_[static_cast<std::int64_t>(b) * sim * sim +
               static_cast<std::int64_t>(i)] =
          down[i] > 0.5 ? config_.target_bright : config_.target_dark;
    }
  }
  iteration_ = 0;
  losses_.clear();
}

void OpcEngine::start(const std::vector<Grid<double>>& intended) {
  check(!intended.empty(), "OpcEngine::start: empty batch");
  const int s = config_.mask_px;
  const int batch = static_cast<int>(intended.size());
  std::vector<float> flat(static_cast<std::size_t>(batch) * s * s);
  std::vector<float> theta(flat.size());
  for (int b = 0; b < batch; ++b) {
    const Grid<double>& g = intended[static_cast<std::size_t>(b)];
    check(g.rows() == s && g.cols() == s,
          "OpcEngine::start: intended pattern must be mask_px square");
    for (std::size_t i = 0; i < g.size(); ++i) {
      const std::size_t j = static_cast<std::size_t>(b) * s * s + i;
      flat[j] = static_cast<float>(g[i]);
      theta[j] = g[i] > 0.5 ? config_.theta_init : -config_.theta_init;
    }
  }
  bind(batch, std::move(flat), std::move(theta));
}

void OpcEngine::restore(const OpcCheckpoint& ck) {
  check(ck.batch > 0, "OpcEngine::restore: empty checkpoint");
  config_ = ck.config;
  bind(ck.batch, ck.intended, ck.theta);
  const std::size_t n = ck.theta.size();
  check(ck.adam_m.size() == n && ck.adam_v.size() == n,
        "OpcEngine::restore: moment size mismatch");
  std::vector<float> state;
  state.reserve(2 * n);
  state.insert(state.end(), ck.adam_m.begin(), ck.adam_m.end());
  state.insert(state.end(), ck.adam_v.begin(), ck.adam_v.end());
  opt_->load_state(state);
  opt_->set_step_count(ck.adam_step);
  iteration_ = ck.iteration;
  losses_ = ck.losses;
}

OpcCheckpoint OpcEngine::checkpoint() const {
  check(batch_ > 0, "OpcEngine::checkpoint: no job bound");
  OpcCheckpoint ck;
  ck.config = config_;
  ck.batch = batch_;
  ck.iteration = iteration_;
  ck.adam_step = opt_->step_count();
  ck.intended = intended_;
  ck.theta = theta();
  const std::vector<float> state = opt_->dump_state();
  const std::size_t n = state.size() / 2;
  ck.adam_m.assign(state.begin(), state.begin() + static_cast<std::ptrdiff_t>(n));
  ck.adam_v.assign(state.begin() + static_cast<std::ptrdiff_t>(n), state.end());
  ck.losses = losses_;
  return ck;
}

OpcStepStats OpcEngine::step() {
  check(batch_ > 0, "OpcEngine::step: no job bound");
  const int s = config_.mask_px;
  arena_.reset();
  nn::GraphArena::Scope scope(arena_);
  opt_->zero_grad();
  nn::Var mask = nn::sigmoid(vtheta_);
  nn::Var spectra = nn::fft2c_crop_batch(mask, kdim_);
  nn::Var aerial =
      nn::socs_intensity_from_spectrum_batch(spectra, kt_, config_.sim_px);
  nn::Var fit = nn::mse_loss_batch_ordered(aerial, targets_);
  // Binarization penalty, summed over the batch of per-mask means:
  // sum_b mean_b(m) - mean_b(m^2) == (sum(m) - sum(m^2)) / mask_px^2.
  // The 1/mask_px^2 constant and the backward arithmetic match the
  // per-mask mean() path exactly (mean == scale(sum, 1/numel)), which is
  // part of the per-mask bit-identity contract.
  const float inv = 1.0f / static_cast<float>(s * s);
  nn::Var bin =
      nn::scale(nn::sub(nn::sum(mask), nn::sum(nn::square(mask))), inv);
  nn::Var loss = nn::add(fit, nn::scale(bin, config_.bin_weight));
  nn::backward(loss, vjp_timer_);
  opt_->step();
  ++iteration_;
  OpcStepStats stats;
  stats.fit_loss = fit->value[0] / static_cast<float>(batch_);
  stats.total_loss = loss->value[0] / static_cast<float>(batch_);
  losses_.push_back(stats.fit_loss);
  return stats;
}

std::vector<float> OpcEngine::theta() const {
  check(batch_ > 0, "OpcEngine::theta: no job bound");
  const float* p = vtheta_->value.data();
  return std::vector<float>(p, p + vtheta_->value.numel());
}

void OpcEngine::load_theta(const std::vector<float>& theta) {
  check(batch_ > 0, "OpcEngine::load_theta: no job bound");
  check(static_cast<std::int64_t>(theta.size()) == vtheta_->value.numel(),
        "OpcEngine::load_theta: size mismatch");
  std::copy(theta.begin(), theta.end(), vtheta_->value.data());
}

std::vector<Grid<double>> OpcEngine::masks() const {
  check(batch_ > 0, "OpcEngine::masks: no job bound");
  const int s = config_.mask_px;
  std::vector<Grid<double>> out;
  out.reserve(static_cast<std::size_t>(batch_));
  for (int b = 0; b < batch_; ++b) {
    Grid<double> m(s, s);
    for (std::size_t i = 0; i < m.size(); ++i) {
      const float t = vtheta_->value[static_cast<std::int64_t>(b) * s * s +
                                     static_cast<std::int64_t>(i)];
      m[i] = 1.0 / (1.0 + std::exp(-static_cast<double>(t)));
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<Grid<double>> OpcEngine::binary_masks() const {
  std::vector<Grid<double>> out = masks();
  for (Grid<double>& m : out) {
    for (double& v : m) v = v > 0.5 ? 1.0 : 0.0;
  }
  return out;
}

nn::Tensor OpcEngine::forward_aerial() const {
  check(batch_ > 0, "OpcEngine::forward_aerial: no job bound");
  // No-grad evaluation through the same float forward the optimizer uses
  // (a constant copy of theta keeps backward closures from being built and
  // lets the SOCS node drop each field plane once it is added).
  nn::Var t = nn::make_leaf(vtheta_->value, /*requires_grad=*/false);
  nn::Var mask = nn::sigmoid(t);
  nn::Var spectra = nn::fft2c_crop_batch(mask, kdim_);
  return nn::socs_intensity_from_spectrum_batch(spectra, kt_, config_.sim_px)
      ->value;
}

std::vector<Grid<double>> OpcEngine::printed() const {
  const nn::Tensor aerial = forward_aerial();
  const int sim = config_.sim_px;
  std::vector<Grid<double>> out;
  out.reserve(static_cast<std::size_t>(batch_));
  for (int b = 0; b < batch_; ++b) {
    Grid<double> g(sim, sim);
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = aerial[static_cast<std::int64_t>(b) * sim * sim +
                    static_cast<std::int64_t>(i)];
    }
    out.push_back(binarize(g, config_.resist_threshold));
  }
  return out;
}

Grid<double> OpcEngine::intended_bin_sim(int b) const {
  const int s = config_.mask_px;
  Grid<double> g(s, s);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = intended_[static_cast<std::size_t>(b) * s * s + i];
  return binarize(downsample_area(g, s / config_.sim_px), 0.5);
}

double OpcEngine::mean_epe_px() const {
  const std::vector<Grid<double>> prints = printed();
  double total = 0.0;
  for (int b = 0; b < batch_; ++b) {
    total += mean_edge_placement_error(prints[static_cast<std::size_t>(b)],
                                       intended_bin_sim(b));
  }
  return total / static_cast<double>(batch_);
}

double mean_edge_placement_error(const Grid<double>& printed,
                                 const Grid<double>& intended) {
  check(printed.same_shape(intended) && !intended.empty(),
        "mean_edge_placement_error: shape mismatch");
  long edges = 0;
  double total = 0.0;
  // One pass over rows, one over columns; `at` abstracts the orientation.
  const auto scan = [&](bool rowwise) {
    const int lines = rowwise ? intended.rows() : intended.cols();
    const int len = rowwise ? intended.cols() : intended.rows();
    std::vector<int> ie, pe;
    for (int l = 0; l < lines; ++l) {
      ie.clear();
      pe.clear();
      const auto at = [&](const Grid<double>& g, int p) {
        return rowwise ? g(l, p) : g(p, l);
      };
      for (int p = 0; p + 1 < len; ++p) {
        if ((at(intended, p) > 0.5) != (at(intended, p + 1) > 0.5))
          ie.push_back(p);
        if ((at(printed, p) > 0.5) != (at(printed, p + 1) > 0.5))
          pe.push_back(p);
      }
      for (const int e : ie) {
        ++edges;
        if (pe.empty()) {
          total += len;  // the pattern's edge never printed in this line
          continue;
        }
        int best = std::numeric_limits<int>::max();
        for (const int q : pe) best = std::min(best, std::abs(q - e));
        total += best;
      }
    }
  };
  scan(true);
  scan(false);
  return edges == 0 ? 0.0 : total / static_cast<double>(edges);
}

}  // namespace nitho::opc
