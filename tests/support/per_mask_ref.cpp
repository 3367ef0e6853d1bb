#include "support/per_mask_ref.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "fft/fft.hpp"
#include "fft/pruned.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"

namespace nitho::test {

using nn::make_node;
using nn::Node;
using nn::Tensor;
using nn::Var;

Var socs_field(const Var& kernels, const Tensor& spectrum, int out_px) {
  check(kernels->value.ndim() == 4 && kernels->value.dim(3) == 2,
        "socs_field: kernels must be [r,n,m,2]");
  const int r = kernels->value.dim(0);
  const int n = kernels->value.dim(1);
  const int m = kernels->value.dim(2);
  check(spectrum.ndim() == 3 && spectrum.dim(0) == n && spectrum.dim(1) == m &&
            spectrum.dim(2) == 2,
        "socs_field: spectrum must match the kernel support");
  check(out_px >= n && out_px >= m, "socs_field: output grid too small");

  const int s = out_px;
  Tensor out({r, s, s, 2});
  const std::int64_t plane = static_cast<std::int64_t>(s) * s * 2;
  const std::int64_t kplane = static_cast<std::int64_t>(n) * m * 2;
  Tensor spec = spectrum;

  parallel_for(r, [&](std::int64_t i) {
    float* dst = out.data() + i * plane;
    const float* k = kernels->value.data() + i * kplane;
    for (int a = 0; a < n; ++a) {
      const int rr = centered_to_dft_index(a, n, s);
      for (int b = 0; b < m; ++b) {
        const int cc = centered_to_dft_index(b, m, s);
        const std::int64_t ki = (static_cast<std::int64_t>(a) * m + b) * 2;
        const float kr = k[ki], kim = k[ki + 1];
        const float cr = spec[ki], ci = spec[ki + 1];
        dst[(static_cast<std::int64_t>(rr) * s + cc) * 2] = kr * cr - kim * ci;
        dst[(static_cast<std::int64_t>(rr) * s + cc) * 2 + 1] =
            kr * ci + kim * cr;
      }
    }
    fft2_plane(dst, s, s, /*inverse=*/true);
  });

  return make_node(
      std::move(out), {kernels},
      [spec = std::move(spec), r, n, m, s, plane, kplane](Node& node) {
        Node& ik = *node.inputs[0];
        if (!ik.requires_grad) return;
        ik.ensure_grad();
        parallel_for(r, [&](std::int64_t i) {
          // vjp of the unnormalized inverse DFT is the unnormalized forward
          // DFT; then gather the crop and multiply by conj(spectrum).
          std::vector<float> g(node.grad.data() + i * plane,
                               node.grad.data() + (i + 1) * plane);
          fft2_plane(g.data(), s, s, /*inverse=*/false);
          float* kg = ik.grad.data() + i * kplane;
          for (int a = 0; a < n; ++a) {
            const int rr = centered_to_dft_index(a, n, s);
            for (int b = 0; b < m; ++b) {
              const int cc = centered_to_dft_index(b, m, s);
              const std::int64_t gi =
                  (static_cast<std::int64_t>(rr) * s + cc) * 2;
              const float gr = g[static_cast<std::size_t>(gi)];
              const float gim = g[static_cast<std::size_t>(gi + 1)];
              const std::int64_t ki = (static_cast<std::int64_t>(a) * m + b) * 2;
              const float cr = spec[ki], ci = spec[ki + 1];
              kg[ki] += gr * cr + gim * ci;
              kg[ki + 1] += gim * cr - gr * ci;
            }
          }
        });
      },
      "socs_field");
}

Var abs2_sum0(const Var& fields) {
  check(fields->value.ndim() == 4 && fields->value.dim(3) == 2,
        "abs2_sum0: fields must be [r,S,S,2]");
  const int r = fields->value.dim(0);
  const int h = fields->value.dim(1);
  const int w = fields->value.dim(2);
  Tensor out({h, w});
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  for (int i = 0; i < r; ++i) {
    const float* e = fields->value.data() + i * plane * 2;
    simd::abs2_accum(out.data(), e, plane);
  }
  return make_node(std::move(out), {fields},
                   [r, plane](Node& node) {
                     Node& ie = *node.inputs[0];
                     if (!ie.requires_grad) return;
                     ie.ensure_grad();
                     for (int i = 0; i < r; ++i) {
                       const float* e = ie.value.data() + i * plane * 2;
                       float* g = ie.grad.data() + i * plane * 2;
                       for (std::int64_t p = 0; p < plane; ++p) {
                         const float gy = node.grad[p];
                         g[2 * p] += 2.0f * e[2 * p] * gy;
                         g[2 * p + 1] += 2.0f * e[2 * p + 1] * gy;
                       }
                     }
                   },
                   "abs2_sum0");
}

Var fft2c_crop(const Var& mask, int crop) {
  check(mask->value.ndim() == 2, "fft2c_crop: mask must be [S,S]");
  const int s = mask->value.dim(0);
  check(mask->value.dim(1) == s, "fft2c_crop: mask must be square");
  check(crop >= 1 && crop <= s && crop % 2 == 1,
        "fft2c_crop: crop must be odd and fit the mask");

  const std::int64_t plane = static_cast<std::int64_t>(s) * s;
  const float inv_n2 = 1.0f / static_cast<float>(plane);
  std::vector<float> buf(static_cast<std::size_t>(plane) * 2, 0.0f);
  for (std::int64_t p = 0; p < plane; ++p) {
    buf[static_cast<std::size_t>(2 * p)] = mask->value[p];
  }
  fft2_plane(buf.data(), s, s, /*inverse=*/false);
  Tensor out({crop, crop, 2});
  for (int a = 0; a < crop; ++a) {
    const int rr = centered_to_dft_index(a, crop, s);
    for (int b = 0; b < crop; ++b) {
      const int cc = centered_to_dft_index(b, crop, s);
      const std::int64_t src = (static_cast<std::int64_t>(rr) * s + cc) * 2;
      const std::int64_t dst = (static_cast<std::int64_t>(a) * crop + b) * 2;
      out[dst] = buf[static_cast<std::size_t>(src)] * inv_n2;
      out[dst + 1] = buf[static_cast<std::size_t>(src + 1)] * inv_n2;
    }
  }
  return make_node(
      std::move(out), {mask},
      [s, crop, plane, inv_n2](Node& node) {
        Node& im = *node.inputs[0];
        if (!im.requires_grad) return;
        im.ensure_grad();
        // vjp: scatter the crop back, unnormalized inverse DFT, real part.
        std::vector<float> buf(static_cast<std::size_t>(plane) * 2, 0.0f);
        for (int a = 0; a < crop; ++a) {
          const int rr = centered_to_dft_index(a, crop, s);
          for (int b = 0; b < crop; ++b) {
            const int cc = centered_to_dft_index(b, crop, s);
            const std::int64_t dst = (static_cast<std::int64_t>(rr) * s + cc) * 2;
            const std::int64_t src = (static_cast<std::int64_t>(a) * crop + b) * 2;
            buf[static_cast<std::size_t>(dst)] = node.grad[src] * inv_n2;
            buf[static_cast<std::size_t>(dst + 1)] = node.grad[src + 1] * inv_n2;
          }
        }
        fft2_plane(buf.data(), s, s, /*inverse=*/true);
        for (std::int64_t p = 0; p < plane; ++p) {
          im.grad[p] += buf[static_cast<std::size_t>(2 * p)];
        }
      },
      "fft2c_crop");
}

Var socs_field_from_spectrum(const Var& spectrum, const Tensor& kernels,
                             int out_px) {
  check(spectrum->value.ndim() == 3 && spectrum->value.dim(2) == 2,
        "socs_field_from_spectrum: spectrum must be [n,m,2]");
  check(kernels.ndim() == 4 && kernels.dim(3) == 2,
        "socs_field_from_spectrum: kernels must be [r,n,m,2]");
  const int r = kernels.dim(0);
  const int n = kernels.dim(1);
  const int m = kernels.dim(2);
  check(spectrum->value.dim(0) == n && spectrum->value.dim(1) == m,
        "socs_field_from_spectrum: shape mismatch");
  check(out_px >= n && out_px >= m, "output grid too small");

  const int s = out_px;
  Tensor out({r, s, s, 2});
  const std::int64_t plane = static_cast<std::int64_t>(s) * s * 2;
  const std::int64_t kplane = static_cast<std::int64_t>(n) * m * 2;
  parallel_for(r, [&](std::int64_t i) {
    float* dst = out.data() + i * plane;
    const float* k = kernels.data() + i * kplane;
    for (int a = 0; a < n; ++a) {
      const int rr = centered_to_dft_index(a, n, s);
      for (int b = 0; b < m; ++b) {
        const int cc = centered_to_dft_index(b, m, s);
        const std::int64_t ki = (static_cast<std::int64_t>(a) * m + b) * 2;
        const float kr = k[ki], kim = k[ki + 1];
        const float cr = spectrum->value[ki], ci = spectrum->value[ki + 1];
        dst[(static_cast<std::int64_t>(rr) * s + cc) * 2] = kr * cr - kim * ci;
        dst[(static_cast<std::int64_t>(rr) * s + cc) * 2 + 1] =
            kr * ci + kim * cr;
      }
    }
    fft2_plane(dst, s, s, /*inverse=*/true);
  });
  Tensor ks = kernels;
  return make_node(
      std::move(out), {spectrum},
      [ks = std::move(ks), r, n, m, s, plane, kplane](Node& node) {
        Node& is = *node.inputs[0];
        if (!is.requires_grad) return;
        is.ensure_grad();
        for (std::int64_t i = 0; i < r; ++i) {
          std::vector<float> g(node.grad.data() + i * plane,
                               node.grad.data() + (i + 1) * plane);
          fft2_plane(g.data(), s, s, /*inverse=*/false);
          const float* k = ks.data() + i * kplane;
          for (int a = 0; a < n; ++a) {
            const int rr = centered_to_dft_index(a, n, s);
            for (int b = 0; b < m; ++b) {
              const int cc = centered_to_dft_index(b, m, s);
              const std::int64_t gi =
                  (static_cast<std::int64_t>(rr) * s + cc) * 2;
              const float gr = g[static_cast<std::size_t>(gi)];
              const float gim = g[static_cast<std::size_t>(gi + 1)];
              const std::int64_t ki = (static_cast<std::int64_t>(a) * m + b) * 2;
              const float kr = k[ki], kim = k[ki + 1];
              // dC += conj(K) . dE
              is.grad[ki] += gr * kr + gim * kim;
              is.grad[ki + 1] += gim * kr - gr * kim;
            }
          }
        }
      },
      "socs_field_from_spectrum");
}

TrainStats legacy_train_nitho(NithoModel& model, const TrainingSet& set,
                              const NithoTrainConfig& cfg) {
  const int n = set.size();
  const int px = set.train_px;
  nn::Adam opt(model.parameters(), cfg.lr);
  Rng rng(cfg.seed);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  TrainStats stats;
  WallTimer timer;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    int batches = 0;
    for (int b = 0; b < n; b += cfg.batch) {
      const int count = std::min(cfg.batch, n - b);
      opt.zero_grad();
      // One field evaluation per step (the kernels do not depend on masks).
      const nn::Var kernels = model.predict_kernels();
      nn::Var loss;
      for (int j = 0; j < count; ++j) {
        const int i = order[static_cast<std::size_t>(b + j)];
        nn::Var pred = abs2_sum0(socs_field(
            kernels, set.spectra[static_cast<std::size_t>(i)], px));
        nn::Var l =
            nn::mse_loss(pred, set.targets[static_cast<std::size_t>(i)]);
        loss = loss ? nn::add(loss, l) : l;
      }
      loss = nn::scale(loss, 1.0f / static_cast<float>(count));
      nn::backward(loss);
      opt.step();
      epoch_loss += loss->value[0];
      ++batches;
      ++stats.steps;
    }
    stats.epoch_losses.push_back(epoch_loss / std::max(1, batches));
    // Cosine decay to 10% of the base learning rate.
    const double t = static_cast<double>(epoch + 1) / cfg.epochs;
    opt.set_lr(
        static_cast<float>(cfg.lr * (0.1 + 0.45 * (1.0 + std::cos(kPi * t)))));
  }
  stats.final_loss = stats.epoch_losses.back();
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace nitho::test
