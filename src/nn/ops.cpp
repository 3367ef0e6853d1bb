#include "nn/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "nn/gemm.hpp"

namespace nitho::nn {
namespace {

void check_same_shape(const Var& a, const Var& b, const char* op) {
  check(a->value.same_shape(b->value), std::string(op) + ": shape mismatch");
}

// Elementwise binary op with per-element backward weights.
template <typename Fwd, typename Bwd>
Var elementwise2(const Var& a, const Var& b, Fwd fwd, Bwd bwd, const char* op) {
  check_same_shape(a, b, op);
  Tensor out = arena_tensor(a->value.shape(), /*zeroed=*/false);
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) out[i] = fwd(a->value[i], b->value[i]);
  return make_node(std::move(out), {a, b},
                   [bwd](Node& node) {
                     Node& ia = *node.inputs[0];
                     Node& ib = *node.inputs[1];
                     const std::int64_t m = node.value.numel();
                     const bool need_a = ia.requires_grad;
                     const bool need_b = ib.requires_grad;
                     if (need_a) ia.ensure_grad();
                     if (need_b) ib.ensure_grad();
                     for (std::int64_t i = 0; i < m; ++i) {
                       float da = 0.0f, db = 0.0f;
                       bwd(ia.value[i], ib.value[i], node.grad[i], da, db);
                       if (need_a) ia.grad[i] += da;
                       if (need_b) ib.grad[i] += db;
                     }
                   },
                   op);
}

// Elementwise unary op; bwd maps (x, y, gy) -> gx.
template <typename Fwd, typename Bwd>
Var elementwise1(const Var& a, Fwd fwd, Bwd bwd, const char* op) {
  Tensor out = arena_tensor(a->value.shape(), /*zeroed=*/false);
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) out[i] = fwd(a->value[i]);
  return make_node(std::move(out), {a},
                   [bwd](Node& node) {
                     Node& ia = *node.inputs[0];
                     if (!ia.requires_grad) return;
                     ia.ensure_grad();
                     const std::int64_t m = node.value.numel();
                     for (std::int64_t i = 0; i < m; ++i) {
                       ia.grad[i] += bwd(ia.value[i], node.value[i], node.grad[i]);
                     }
                   },
                   op);
}

// Grow-only per-thread scratch of clinear.  The calling thread blocks
// inside each GEMM's parallel_for, so the pool's workers see it stable.
struct ClinearScratch {
  std::vector<float> w;   ///< W's planes side by side, [K, 2N] (forward)
                          ///< or W^T's, [N, 2K] (backward)
  std::vector<float> g;   ///< G's planes side by side, [M, 2N]
  std::vector<float> t0;  ///< GEMM outputs and fold temporaries
  std::vector<float> t1;
};

// relu's `keep ? x : 0.0f`, bit for bit, without a branch: CReLU masks
// are data-dependent coin flips, and a mispredicted branch per element
// costs more than the layer's bias and mask passes themselves.
float keep_or_zero(bool keep, float x) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) &
                              (0u - static_cast<std::uint32_t>(keep)));
}

ClinearScratch& clinear_scratch() {
  thread_local ClinearScratch s;
  return s;
}

float* grow(std::vector<float>& v, std::int64_t n) {
  if (static_cast<std::int64_t>(v.size()) < n) {
    v.resize(static_cast<std::size_t>(n));
  }
  return v.data();
}

}  // namespace

Var add(const Var& a, const Var& b) {
  return elementwise2(
      a, b, [](float x, float y) { return x + y; },
      [](float, float, float g, float& da, float& db) {
        da = g;
        db = g;
      },
      "add");
}

Var sub(const Var& a, const Var& b) {
  return elementwise2(
      a, b, [](float x, float y) { return x - y; },
      [](float, float, float g, float& da, float& db) {
        da = g;
        db = -g;
      },
      "sub");
}

Var scale(const Var& a, float s) {
  return elementwise1(
      a, [s](float x) { return s * x; },
      [s](float, float, float g) { return s * g; }, "scale");
}

Var relu(const Var& a) {
  return elementwise1(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float, float g) { return x > 0.0f ? g : 0.0f; }, "relu");
}

Var leaky_relu(const Var& a, float alpha) {
  return elementwise1(
      a, [alpha](float x) { return x > 0.0f ? x : alpha * x; },
      [alpha](float x, float, float g) { return x > 0.0f ? g : alpha * g; },
      "leaky_relu");
}

Var sigmoid(const Var& a) {
  return elementwise1(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y, float g) { return g * y * (1.0f - y); }, "sigmoid");
}

Var square(const Var& a) {
  return elementwise1(
      a, [](float x) { return x * x; },
      [](float x, float, float g) { return 2.0f * x * g; }, "square");
}

Var sum(const Var& a) {
  Tensor out({1});
  double acc = 0.0;
  const std::int64_t n = a->value.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += a->value[i];
  out[0] = static_cast<float>(acc);
  return make_node(std::move(out), {a},
                   [](Node& node) {
                     Node& ia = *node.inputs[0];
                     if (!ia.requires_grad) return;
                     ia.ensure_grad();
                     const float g = node.grad[0];
                     const std::int64_t n2 = ia.value.numel();
                     for (std::int64_t i = 0; i < n2; ++i) ia.grad[i] += g;
                   },
                   "sum");
}

Var mean(const Var& a) {
  check(a->value.numel() > 0, "mean of empty tensor");
  return scale(sum(a), 1.0f / static_cast<float>(a->value.numel()));
}

Var mse_loss(const Var& pred, const Tensor& target) {
  check(pred->value.same_shape(target), "mse_loss: shape mismatch");
  const std::int64_t n = pred->value.numel();
  check(n > 0, "mse_loss of empty tensors");
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = pred->value[i] - target[i];
    acc += d * d;
  }
  Tensor out({1});
  out[0] = static_cast<float>(acc / static_cast<double>(n));
  Tensor tgt = target;
  return make_node(std::move(out), {pred},
                   [tgt = std::move(tgt)](Node& node) {
                     Node& ip = *node.inputs[0];
                     if (!ip.requires_grad) return;
                     ip.ensure_grad();
                     const std::int64_t n2 = ip.value.numel();
                     const float w = 2.0f * node.grad[0] / static_cast<float>(n2);
                     for (std::int64_t i = 0; i < n2; ++i)
                       ip.grad[i] += w * (ip.value[i] - tgt[i]);
                   },
                   "mse_loss");
}

Var mse_loss_batch_ordered(const Var& pred, const Tensor& targets) {
  check(pred->value.same_shape(targets), "mse_loss_batch_ordered: shape mismatch");
  check(pred->value.ndim() >= 2, "mse_loss_batch_ordered: needs a batch axis");
  const int batch = pred->value.dim(0);
  check(batch >= 1, "mse_loss_batch_ordered: empty batch");
  const std::int64_t plane = pred->value.numel() / batch;
  check(plane > 0, "mse_loss_batch_ordered: empty samples");
  float total = 0.0f;
  for (int b = 0; b < batch; ++b) {
    const float* v = pred->value.data() + b * plane;
    const float* t = targets.data() + b * plane;
    double acc = 0.0;
    for (std::int64_t i = 0; i < plane; ++i) {
      // Float subtraction then widen, exactly like per-sample mse_loss.
      const double d = v[i] - t[i];
      acc += d * d;
    }
    const float lb = static_cast<float>(acc / static_cast<double>(plane));
    total = (b == 0) ? lb : total + lb;
  }
  Tensor out({1});
  out[0] = total;
  Tensor tgt = targets;
  return make_node(std::move(out), {pred},
                   [tgt = std::move(tgt), batch, plane](Node& node) {
                     Node& ip = *node.inputs[0];
                     if (!ip.requires_grad) return;
                     ip.ensure_grad();
                     // Every per-sample loss sees the root gradient
                     // unchanged (add() passes gradients through), so the
                     // per-pixel weight matches per-sample mse_loss.
                     const float w =
                         2.0f * node.grad[0] / static_cast<float>(plane);
                     for (int b = 0; b < batch; ++b) {
                       const std::int64_t off = b * plane;
                       for (std::int64_t i = 0; i < plane; ++i) {
                         ip.grad[off + i] +=
                             w * (ip.value[off + i] - tgt[off + i]);
                       }
                     }
                   },
                   "mse_loss_batch_ordered");
}

Var clinear(const Var& x, const Var& w, const Var& b, bool crelu) {
  const Tensor& xv = x->value;
  const bool real = xv.ndim() == 2;
  check(real || (xv.ndim() == 3 && xv.dim(2) == 2),
        "clinear: x must be complex [M,K,2] or real [M,K]");
  check(!real || !x->requires_grad,
        "clinear: a real (1+j)-lifted input cannot take a gradient");
  const int m = xv.dim(0), k = xv.dim(1);
  check(w->value.ndim() == 3 && w->value.dim(0) == k && w->value.dim(2) == 2,
        "clinear: W must be [K,N,2]");
  const int n = w->value.dim(1);
  check(b->value.ndim() == 2 && b->value.dim(0) == n && b->value.dim(1) == 2,
        "clinear: b must be [N,2]");

  // Every GEMM below gives each output element the fold the historical
  // chain gives it (tests/support/cmlp_ref.hpp): the same products, with
  // the same operands on the left, added in the same order from 0.0f.  A
  // GEMM against two planes side by side ([Wr | Wi] as B) folds each
  // plane's columns exactly as a GEMM against that plane alone.
  ClinearScratch& s = clinear_scratch();
  float* wp = grow(s.w, 2 * static_cast<std::int64_t>(k) * n);
  const float* wv = w->value.data();
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      wp[p * 2 * n + j] = wv[2 * (p * n + j)];
      wp[p * 2 * n + n + j] = wv[2 * (p * n + j) + 1];
    }
  }
  // X's planes are read in place: row stride 2k and p stride 2 with the
  // imaginary plane one float in, or (k, 1) for a real-lifted x, whose
  // imaginary plane is the real one.
  const std::int64_t ars = real ? k : 2 * k, aps = real ? 1 : 2;
  const float* xr = xv.data();
  const float* xi = real ? xr : xr + 1;
  // C = (Xr + i Xi)(Wr + i Wi): t = Xr [Wr | Wi] = [Xr Wr | Xr Wi], then
  // cr = Xr Wr - Xi Wi and ci = Xr Wi continued by Xi Wr.  Dense kernels
  // (no zero-skip): bench_micro BM_Gemm* measured the skip branch as a
  // wash-to-loss even on CReLU-sparse activations.  With a real-lifted x,
  // Xi Wi is bitwise Xr Wi, already in t's right half: one GEMM fewer.
  const std::int64_t ldt = 2 * static_cast<std::int64_t>(n);
  float* t = grow(s.t0, m * ldt);
  gemm_dense(m, 2 * n, k, xr, ars, aps, wp, ldt, t, ldt, false);
  const float* xiwi = t + n;
  std::int64_t ldu = ldt;
  if (!real) {
    float* u = grow(s.t1, static_cast<std::int64_t>(m) * n);
    gemm_dense(m, n, k, xi, ars, aps, wp + n, ldt, u, n, false);
    xiwi = u;
    ldu = n;
  }
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) t[r * ldt + j] -= xiwi[r * ldu + j];
  }
  gemm_dense(m, n, k, xi, ars, aps, wp, ldt, t + n, ldt, true);

  // One pass: interleave, add the bias, CReLU — the chain's merge, bias
  // add and relu operations in their order.
  Tensor out = arena_tensor({m, n, 2}, /*zeroed=*/false);
  float* y = out.data();
  const float* bv = b->value.data();
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      float yr = t[r * ldt + j] + bv[2 * j];
      float yi = t[r * ldt + n + j] + bv[2 * j + 1];
      if (crelu) {
        yr = keep_or_zero(yr > 0.0f, yr);
        yi = keep_or_zero(yi > 0.0f, yi);
      }
      y[2 * (r * n + j)] = yr;
      y[2 * (r * n + j) + 1] = yi;
    }
  }
  return make_node(
      std::move(out), {x, w, b},
      [m, n, k, real, crelu](Node& node) {
        Node& ix = *node.inputs[0];
        Node& iw = *node.inputs[1];
        Node& ib = *node.inputs[2];
        ClinearScratch& s2 = clinear_scratch();
        // G, the gradient the oracle's matmul saw: relu adds its masked
        // gradient into a zeroed buffer and the bias add adds that into
        // another, so G = 0.0f + gz with gz = 0.0f + mask(g) under CReLU
        // and gz = g without.  The adds are kept: they turn -0.0f into
        // +0.0f.  The bias folds gz over ascending rows, as the chain does.
        // G's planes go side by side, [Gr | Gi].
        const std::int64_t ldg = 2 * static_cast<std::int64_t>(n);
        float* gp = grow(s2.g, m * ldg);
        const float* g = node.grad.data();
        const float* yv = node.value.data();
        float* bg = ib.requires_grad ? ib.ensure_grad().data() : nullptr;
        for (std::int64_t r = 0; r < m; ++r) {
          for (std::int64_t j = 0; j < n; ++j) {
            const std::int64_t i = r * n + j;
            float gzr = g[2 * i], gzi = g[2 * i + 1];
            if (crelu) {
              // y > 0 exactly where the pre-activation is > 0.
              gzr = 0.0f + keep_or_zero(yv[2 * i] > 0.0f, gzr);
              gzi = 0.0f + keep_or_zero(yv[2 * i + 1] > 0.0f, gzi);
            }
            if (bg != nullptr) {
              bg[2 * j] += gzr;
              bg[2 * j + 1] += gzi;
            }
            gp[r * ldg + j] = 0.0f + gzr;
            gp[r * ldg + n + j] = 0.0f + gzi;
          }
        }
        if (ix.requires_grad) {
          // dX = G W^H: dXr = Gr Wr^T + Gi Wi^T ; dXi = Gi Wr^T - Gr Wi^T,
          // from d1 = Gr [Wr^T | Wi^T] and d2 = Gi [Wr^T | Wi^T].  (A
          // real-lifted x never requires grad.)
          const std::int64_t ldw = 2 * static_cast<std::int64_t>(k);
          float* wt = grow(s2.w, n * ldw);
          const float* wv2 = iw.value.data();
          for (std::int64_t p = 0; p < k; ++p) {
            for (std::int64_t j = 0; j < n; ++j) {
              wt[j * ldw + p] = wv2[2 * (p * n + j)];
              wt[j * ldw + k + p] = wv2[2 * (p * n + j) + 1];
            }
          }
          float* d1 = grow(s2.t0, m * ldw);
          float* d2 = grow(s2.t1, m * ldw);
          gemm_dense(m, 2 * k, n, gp, ldg, 1, wt, ldw, d1, ldw, false);
          gemm_dense(m, 2 * k, n, gp + n, ldg, 1, wt, ldw, d2, ldw, false);
          float* dx = ix.ensure_grad().data();
          for (std::int64_t r = 0; r < m; ++r) {
            for (std::int64_t p = 0; p < k; ++p) {
              const std::int64_t i = r * k + p;
              dx[2 * i] += d1[r * ldw + p] + d2[r * ldw + k + p];
              dx[2 * i + 1] += d2[r * ldw + p] - d1[r * ldw + k + p];
            }
          }
        }
        if (iw.requires_grad) {
          // dW = X^H G: dWr = Xr^T Gr + Xi^T Gi ; dWi = Xr^T Gi - Xi^T Gr,
          // from e1 = Xr^T [Gr | Gi] and e2 = Xi^T [Gr | Gi], X read in
          // place (row stride 2, p stride 2k).  For a real-lifted x, e2 is
          // bitwise e1: one GEMM instead of two.
          const std::int64_t ars2 = real ? 1 : 2, aps2 = real ? k : 2 * k;
          const float* xr2 = ix.value.data();
          float* e1 = grow(s2.t0, k * ldg);
          gemm_dense(k, 2 * n, m, xr2, ars2, aps2, gp, ldg, e1, ldg, false);
          const float* e2 = e1;
          if (!real) {
            float* e2w = grow(s2.t1, k * ldg);
            gemm_dense(k, 2 * n, m, xr2 + 1, ars2, aps2, gp, ldg, e2w, ldg,
                       false);
            e2 = e2w;
          }
          float* dw = iw.ensure_grad().data();
          for (std::int64_t p = 0; p < k; ++p) {
            for (std::int64_t j = 0; j < n; ++j) {
              const std::int64_t i = p * n + j;
              dw[2 * i] += e1[p * ldg + j] + e2[p * ldg + n + j];
              dw[2 * i + 1] += e1[p * ldg + n + j] - e2[p * ldg + j];
            }
          }
        }
      },
      "clinear");
}

Var reshape(const Var& a, std::vector<int> shape) {
  Tensor out = arena_tensor(std::move(shape), /*zeroed=*/false);
  check(out.numel() == a->value.numel(), "reshape changes element count");
  const float* src = a->value.data();
  std::copy(src, src + a->value.numel(), out.data());
  return make_node(std::move(out), {a},
                   [](Node& node) {
                     Node& ia = *node.inputs[0];
                     if (!ia.requires_grad) return;
                     ia.ensure_grad();
                     const std::int64_t n = node.value.numel();
                     for (std::int64_t i = 0; i < n; ++i)
                       ia.grad[i] += node.grad[i];
                   },
                   "reshape");
}

Var transpose01(const Var& a) {
  check(a->value.ndim() >= 2, "transpose01 needs >= 2 dims");
  const int d0 = a->value.dim(0), d1 = a->value.dim(1);
  const std::int64_t rest = a->value.numel() / (static_cast<std::int64_t>(d0) * d1);
  std::vector<int> shape = a->value.shape();
  std::swap(shape[0], shape[1]);
  Tensor out = arena_tensor(shape, /*zeroed=*/false);
  for (int i = 0; i < d0; ++i)
    for (int j = 0; j < d1; ++j) {
      const float* src = a->value.data() + (static_cast<std::int64_t>(i) * d1 + j) * rest;
      float* dst = out.data() + (static_cast<std::int64_t>(j) * d0 + i) * rest;
      for (std::int64_t r = 0; r < rest; ++r) dst[r] = src[r];
    }
  return make_node(std::move(out), {a},
                   [d0, d1, rest](Node& node) {
                     Node& ia = *node.inputs[0];
                     if (!ia.requires_grad) return;
                     ia.ensure_grad();
                     for (int i = 0; i < d0; ++i)
                       for (int j = 0; j < d1; ++j) {
                         const float* g =
                             node.grad.data() +
                             (static_cast<std::int64_t>(j) * d0 + i) * rest;
                         float* dst = ia.grad.data() +
                                      (static_cast<std::int64_t>(i) * d1 + j) * rest;
                         for (std::int64_t r = 0; r < rest; ++r) dst[r] += g[r];
                       }
                   },
                   "transpose01");
}

Var concat0(const Var& a, const Var& b) {
  check(a->value.ndim() == b->value.ndim() && a->value.ndim() >= 1,
        "concat0 rank mismatch");
  for (int i = 1; i < a->value.ndim(); ++i)
    check(a->value.dim(i) == b->value.dim(i), "concat0 trailing shape mismatch");
  std::vector<int> shape = a->value.shape();
  shape[0] += b->value.dim(0);
  Tensor out(shape);
  const std::int64_t na = a->value.numel();
  for (std::int64_t i = 0; i < na; ++i) out[i] = a->value[i];
  const std::int64_t nb = b->value.numel();
  for (std::int64_t i = 0; i < nb; ++i) out[na + i] = b->value[i];
  return make_node(std::move(out), {a, b},
                   [na](Node& node) {
                     Node& ia = *node.inputs[0];
                     Node& ib = *node.inputs[1];
                     if (ia.requires_grad) {
                       ia.ensure_grad();
                       for (std::int64_t i = 0; i < na; ++i)
                         ia.grad[i] += node.grad[i];
                     }
                     if (ib.requires_grad) {
                       ib.ensure_grad();
                       const std::int64_t nb2 = ib.value.numel();
                       for (std::int64_t i = 0; i < nb2; ++i)
                         ib.grad[i] += node.grad[na + i];
                     }
                   },
                   "concat0");
}

}  // namespace nitho::nn
