#include "support/conv_ref.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "support/gemm_ref.hpp"

namespace nitho::test {

using nn::make_node;
using nn::Node;
using nn::Tensor;
using nn::Var;

namespace {

// col [H*W, Cin*kh*kw] with zero padding (same-size output).
void im2col(const float* x, int cin, int h, int w, int kh, int kw,
            std::vector<float>& col) {
  const int ph = kh / 2, pw = kw / 2;
  const std::int64_t k = static_cast<std::int64_t>(cin) * kh * kw;
  col.assign(static_cast<std::size_t>(h) * w * k, 0.0f);
  parallel_for(h, [&](std::int64_t y) {
    for (int xx = 0; xx < w; ++xx) {
      float* row = col.data() + (y * w + xx) * k;
      std::int64_t idx = 0;
      for (int ci = 0; ci < cin; ++ci) {
        const float* src = x + static_cast<std::int64_t>(ci) * h * w;
        for (int dy = 0; dy < kh; ++dy) {
          const int sy = static_cast<int>(y) + dy - ph;
          for (int dx = 0; dx < kw; ++dx, ++idx) {
            const int sx = xx + dx - pw;
            if (sy >= 0 && sy < h && sx >= 0 && sx < w) {
              row[idx] = src[static_cast<std::int64_t>(sy) * w + sx];
            }
          }
        }
      }
    }
  });
}

// Scatter col-layout gradients back to image layout (adjoint of im2col).
void col2im_acc(const std::vector<float>& col, int cin, int h, int w, int kh,
                int kw, float* gx) {
  const int ph = kh / 2, pw = kw / 2;
  const std::int64_t k = static_cast<std::int64_t>(cin) * kh * kw;
  // Parallel over channels: each channel's accumulation is independent.
  parallel_for(cin, [&](std::int64_t ci) {
    float* dst = gx + ci * h * w;
    for (int y = 0; y < h; ++y) {
      for (int xx = 0; xx < w; ++xx) {
        const float* row = col.data() + (static_cast<std::int64_t>(y) * w + xx) * k;
        std::int64_t idx = ci * kh * kw;
        for (int dy = 0; dy < kh; ++dy) {
          const int sy = y + dy - ph;
          for (int dx = 0; dx < kw; ++dx, ++idx) {
            const int sx = xx + dx - pw;
            if (sy >= 0 && sy < h && sx >= 0 && sx < w) {
              dst[static_cast<std::int64_t>(sy) * w + sx] += row[idx];
            }
          }
        }
      }
    }
  });
}

}  // namespace

Var conv2d_ref(const Var& x, const Var& w, const Var& b) {
  check(x->value.ndim() == 3, "conv2d: x must be [Cin,H,W]");
  check(w->value.ndim() == 4, "conv2d: w must be [Cout,Cin,kh,kw]");
  check(b->value.ndim() == 1, "conv2d: b must be [Cout]");
  const int cin = x->value.dim(0), h = x->value.dim(1), wd = x->value.dim(2);
  const int cout = w->value.dim(0), kh = w->value.dim(2), kw = w->value.dim(3);
  check(w->value.dim(1) == cin, "conv2d: channel mismatch");
  check(b->value.dim(0) == cout, "conv2d: bias size mismatch");
  check(kh % 2 == 1 && kw % 2 == 1, "conv2d: kernels must be odd");

  const std::int64_t hw = static_cast<std::int64_t>(h) * wd;
  const std::int64_t k = static_cast<std::int64_t>(cin) * kh * kw;
  std::vector<float> col;
  im2col(x->value.data(), cin, h, wd, kh, kw, col);

  // out_flat [HW, Cout] = col [HW, K] * Wf [Cout, K]^T.
  std::vector<float> flat(static_cast<std::size_t>(hw) * cout);
  gemm_nt(hw, cout, k, col.data(), w->value.data(), flat.data(), false);

  Tensor out({cout, h, wd});
  for (int co = 0; co < cout; ++co) {
    const float bias = b->value[co];
    float* dst = out.data() + co * hw;
    for (std::int64_t p = 0; p < hw; ++p) dst[p] = flat[p * cout + co] + bias;
  }

  return make_node(
      std::move(out), {x, w, b},
      [cin, cout, h, wd, kh, kw, hw, k](Node& node) {
        Node& ix = *node.inputs[0];
        Node& iw = *node.inputs[1];
        Node& ib = *node.inputs[2];
        // g_flat [HW, Cout] from [Cout, H, W].
        std::vector<float> gflat(static_cast<std::size_t>(hw) * cout);
        for (int co = 0; co < cout; ++co) {
          const float* g = node.grad.data() + co * hw;
          for (std::int64_t p = 0; p < hw; ++p) gflat[p * cout + co] = g[p];
        }
        if (ib.requires_grad) {
          ib.ensure_grad();
          for (int co = 0; co < cout; ++co) {
            double acc = 0.0;
            const float* g = node.grad.data() + co * hw;
            for (std::int64_t p = 0; p < hw; ++p) acc += g[p];
            ib.grad[co] += static_cast<float>(acc);
          }
        }
        std::vector<float> col;
        if (iw.requires_grad || ix.requires_grad) {
          im2col(ix.value.data(), cin, h, wd, kh, kw, col);
        }
        if (iw.requires_grad) {
          iw.ensure_grad();
          // gW [Cout, K] = gflat^T [Cout, HW] * col [HW, K].
          gemm_tn(cout, k, hw, gflat.data(), col.data(), iw.grad.data(), true);
        }
        if (ix.requires_grad) {
          ix.ensure_grad();
          // g_col [HW, K] = gflat [HW, Cout] * Wf [Cout, K].
          std::vector<float> gcol(static_cast<std::size_t>(hw) * k);
          gemm_nn(hw, k, cout, gflat.data(), iw.value.data(), gcol.data(),
                  false);
          col2im_acc(gcol, cin, h, wd, kh, kw, ix.grad.data());
        }
      },
      "conv2d");
}

}  // namespace nitho::test
