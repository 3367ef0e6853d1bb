#include "nn/ops_conv.hpp"

#include <vector>

#include "common/check.hpp"
#include "nn/gemm.hpp"

namespace nitho::nn {
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

Var conv2d(const Var& x, const Var& w, const Var& b) {
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

  // out_flat [HW, Cout] = col [HW, K] * Wf^T, with Wf [Cout, K] packed
  // transposed once so B is read row by row.
  const float* wv = w->value.data();
  std::vector<float> wt(static_cast<std::size_t>(k) * cout);
  for (int co = 0; co < cout; ++co) {
    for (std::int64_t p = 0; p < k; ++p) wt[p * cout + co] = wv[co * k + p];
  }
  std::vector<float> flat(static_cast<std::size_t>(hw) * cout);
  gemm_dense(hw, cout, k, col.data(), k, 1, wt.data(), cout, flat.data(),
             cout, false);

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
        // The upstream gradient G [Cout, HW] is read in place: (hw, 1) is
        // G itself, (1, hw) its transpose [HW, Cout].
        const float* g = node.grad.data();
        if (ib.requires_grad) {
          ib.ensure_grad();
          for (int co = 0; co < cout; ++co) {
            double acc = 0.0;
            const float* gc = g + co * hw;
            for (std::int64_t p = 0; p < hw; ++p) acc += gc[p];
            ib.grad[co] += static_cast<float>(acc);
          }
        }
        if (iw.requires_grad) {
          // gW [Cout, K] += G [Cout, HW] * col [HW, K].
          std::vector<float> col;
          im2col(ix.value.data(), cin, h, wd, kh, kw, col);
          gemm_dense(cout, k, hw, g, hw, 1, col.data(), k,
                     iw.ensure_grad().data(), k, true);
        }
        if (ix.requires_grad) {
          // g_col [HW, K] = G^T [HW, Cout] * Wf [Cout, K].
          std::vector<float> gcol(static_cast<std::size_t>(hw) * k);
          gemm_dense(hw, k, cout, g, 1, hw, iw.value.data(), k, gcol.data(),
                     k, false);
          col2im_acc(gcol, cin, h, wd, kh, kw, ix.ensure_grad().data());
        }
      },
      "conv2d");
}

Var avg_pool2(const Var& x) {
  check(x->value.ndim() == 3, "avg_pool2: x must be [C,H,W]");
  const int c = x->value.dim(0), h = x->value.dim(1), w = x->value.dim(2);
  check(h % 2 == 0 && w % 2 == 0, "avg_pool2: H and W must be even");
  const int oh = h / 2, ow = w / 2;
  Tensor out({c, oh, ow});
  for (int ci = 0; ci < c; ++ci) {
    const float* src = x->value.data() + static_cast<std::int64_t>(ci) * h * w;
    float* dst = out.data() + static_cast<std::int64_t>(ci) * oh * ow;
    for (int y = 0; y < oh; ++y)
      for (int xx = 0; xx < ow; ++xx)
        dst[y * ow + xx] = 0.25f * (src[(2 * y) * w + 2 * xx] +
                                    src[(2 * y) * w + 2 * xx + 1] +
                                    src[(2 * y + 1) * w + 2 * xx] +
                                    src[(2 * y + 1) * w + 2 * xx + 1]);
  }
  return make_node(std::move(out), {x},
                   [c, h, w, oh, ow](Node& node) {
                     Node& ix = *node.inputs[0];
                     if (!ix.requires_grad) return;
                     ix.ensure_grad();
                     for (int ci = 0; ci < c; ++ci) {
                       const float* g =
                           node.grad.data() + static_cast<std::int64_t>(ci) * oh * ow;
                       float* dst =
                           ix.grad.data() + static_cast<std::int64_t>(ci) * h * w;
                       for (int y = 0; y < oh; ++y)
                         for (int xx = 0; xx < ow; ++xx) {
                           const float gv = 0.25f * g[y * ow + xx];
                           dst[(2 * y) * w + 2 * xx] += gv;
                           dst[(2 * y) * w + 2 * xx + 1] += gv;
                           dst[(2 * y + 1) * w + 2 * xx] += gv;
                           dst[(2 * y + 1) * w + 2 * xx + 1] += gv;
                         }
                     }
                   },
                   "avg_pool2");
}

Var upsample2(const Var& x) {
  check(x->value.ndim() == 3, "upsample2: x must be [C,H,W]");
  const int c = x->value.dim(0), h = x->value.dim(1), w = x->value.dim(2);
  const int oh = h * 2, ow = w * 2;
  Tensor out({c, oh, ow});
  for (int ci = 0; ci < c; ++ci) {
    const float* src = x->value.data() + static_cast<std::int64_t>(ci) * h * w;
    float* dst = out.data() + static_cast<std::int64_t>(ci) * oh * ow;
    for (int y = 0; y < oh; ++y)
      for (int xx = 0; xx < ow; ++xx)
        dst[y * ow + xx] = src[(y / 2) * w + xx / 2];
  }
  return make_node(std::move(out), {x},
                   [c, h, w, oh, ow](Node& node) {
                     Node& ix = *node.inputs[0];
                     if (!ix.requires_grad) return;
                     ix.ensure_grad();
                     for (int ci = 0; ci < c; ++ci) {
                       const float* g =
                           node.grad.data() + static_cast<std::int64_t>(ci) * oh * ow;
                       float* dst =
                           ix.grad.data() + static_cast<std::int64_t>(ci) * h * w;
                       for (int y = 0; y < oh; ++y)
                         for (int xx = 0; xx < ow; ++xx)
                           dst[(y / 2) * w + xx / 2] += g[y * ow + xx];
                     }
                   },
                   "upsample2");
}

}  // namespace nitho::nn
