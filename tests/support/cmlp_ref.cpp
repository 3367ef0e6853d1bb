#include "support/cmlp_ref.hpp"

#include <vector>

#include "common/check.hpp"
#include "nn/gemm.hpp"
#include "nn/ops.hpp"
#include "support/gemm_ref.hpp"

namespace nitho::test {

using nn::gemm_dense;
using nn::Node;
using nn::Tensor;
using nn::Var;

namespace {

// De-interleave a [..., 2] tensor into planar re/im buffers.
void split_complex(const Tensor& t, std::vector<float>& re,
                   std::vector<float>& im) {
  const std::int64_t n = t.numel() / 2;
  re.resize(static_cast<std::size_t>(n));
  im.resize(static_cast<std::size_t>(n));
  const float* p = t.data();
  for (std::int64_t i = 0; i < n; ++i) {
    re[static_cast<std::size_t>(i)] = p[2 * i];
    im[static_cast<std::size_t>(i)] = p[2 * i + 1];
  }
}

void merge_complex(const std::vector<float>& re, const std::vector<float>& im,
                   float* out, bool accumulate) {
  const std::int64_t n = static_cast<std::int64_t>(re.size());
  for (std::int64_t i = 0; i < n; ++i) {
    if (accumulate) {
      out[2 * i] += re[static_cast<std::size_t>(i)];
      out[2 * i + 1] += im[static_cast<std::size_t>(i)];
    } else {
      out[2 * i] = re[static_cast<std::size_t>(i)];
      out[2 * i + 1] = im[static_cast<std::size_t>(i)];
    }
  }
}

// The historical dense gemm_nn / gemm_tn entries: row-major A, and the
// transpose of a row-major A.
void gemm_nn_dense(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, const float* b, float* c, bool accumulate) {
  gemm_dense(m, n, k, a, k, 1, b, n, c, n, accumulate);
}

void gemm_tn_dense(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, const float* b, float* c, bool accumulate) {
  gemm_dense(m, n, k, a, 1, m, b, n, c, n, accumulate);
}

}  // namespace

Var cmatmul(const Var& a, const Var& b) {
  check(a->value.ndim() == 3 && a->value.dim(2) == 2, "cmatmul: a not complex");
  check(b->value.ndim() == 3 && b->value.dim(2) == 2, "cmatmul: b not complex");
  const int m = a->value.dim(0), k = a->value.dim(1), n = b->value.dim(1);
  check(b->value.dim(0) == k, "cmatmul inner dimension mismatch");

  std::vector<float> ar, ai, br, bi;
  split_complex(a->value, ar, ai);
  split_complex(b->value, br, bi);
  std::vector<float> cr(static_cast<std::size_t>(m) * n),
      ci(static_cast<std::size_t>(m) * n);
  // C = (Ar + i Ai)(Br + i Bi).
  gemm_nn_dense(m, n, k, ar.data(), br.data(), cr.data(), false);
  gemm_nn_dense(m, n, k, ai.data(), bi.data(), ci.data(), false);
  for (std::size_t i = 0; i < cr.size(); ++i) cr[i] -= ci[i];
  gemm_nn_dense(m, n, k, ar.data(), bi.data(), ci.data(), false);
  gemm_nn_dense(m, n, k, ai.data(), br.data(), ci.data(), true);

  Tensor out = nn::arena_tensor({m, n, 2}, /*zeroed=*/false);
  merge_complex(cr, ci, out.data(), false);
  return nn::make_node(
      std::move(out), {a, b},
      [m, n, k](Node& node) {
        Node& ia = *node.inputs[0];
        Node& ib = *node.inputs[1];
        std::vector<float> ar, ai, br, bi, gr, gi;
        split_complex(ia.value, ar, ai);
        split_complex(ib.value, br, bi);
        split_complex(node.grad, gr, gi);
        if (ia.requires_grad) {
          // dA = dC B^H: dAr = Gr Br^T + Gi Bi^T ; dAi = Gi Br^T - Gr Bi^T.
          std::vector<float> dar(static_cast<std::size_t>(m) * k),
              dai(static_cast<std::size_t>(m) * k);
          gemm_nt(m, k, n, gr.data(), br.data(), dar.data(), false);
          gemm_nt(m, k, n, gi.data(), bi.data(), dai.data(), false);
          for (std::size_t i = 0; i < dar.size(); ++i) dar[i] += dai[i];
          gemm_nt(m, k, n, gi.data(), br.data(), dai.data(), false);
          std::vector<float> tmp(static_cast<std::size_t>(m) * k);
          gemm_nt(m, k, n, gr.data(), bi.data(), tmp.data(), false);
          for (std::size_t i = 0; i < dai.size(); ++i) dai[i] -= tmp[i];
          ia.ensure_grad();
          merge_complex(dar, dai, ia.grad.data(), true);
        }
        if (ib.requires_grad) {
          // dB = A^H dC: dBr = Ar^T Gr + Ai^T Gi ; dBi = Ar^T Gi - Ai^T Gr.
          std::vector<float> dbr(static_cast<std::size_t>(k) * n),
              dbi(static_cast<std::size_t>(k) * n);
          gemm_tn_dense(k, n, m, ar.data(), gr.data(), dbr.data(), false);
          gemm_tn_dense(k, n, m, ai.data(), gi.data(), dbi.data(), false);
          for (std::size_t i = 0; i < dbr.size(); ++i) dbr[i] += dbi[i];
          gemm_tn_dense(k, n, m, ar.data(), gi.data(), dbi.data(), false);
          std::vector<float> tmp(static_cast<std::size_t>(k) * n);
          gemm_tn_dense(k, n, m, ai.data(), gr.data(), tmp.data(), false);
          for (std::size_t i = 0; i < dbi.size(); ++i) dbi[i] -= tmp[i];
          ib.ensure_grad();
          merge_complex(dbr, dbi, ib.grad.data(), true);
        }
      },
      "cmatmul");
}

Var add_bias(const Var& x, const Var& b) {
  const std::int64_t bn = b->value.numel();
  check(bn > 0 && x->value.numel() % bn == 0,
        "add_bias: bias must tile the input");
  Tensor out = nn::arena_tensor(x->value.shape(), /*zeroed=*/false);
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) out[i] = x->value[i] + b->value[i % bn];
  return nn::make_node(
      std::move(out), {x, b},
      [](Node& node) {
        Node& ix = *node.inputs[0];
        Node& ib = *node.inputs[1];
        const std::int64_t n2 = node.value.numel();
        const std::int64_t bn2 = ib.value.numel();
        if (ix.requires_grad) {
          ix.ensure_grad();
          for (std::int64_t i = 0; i < n2; ++i) ix.grad[i] += node.grad[i];
        }
        if (ib.requires_grad) {
          ib.ensure_grad();
          // Ascending i: each bias element folds its rows in order.
          for (std::int64_t i = 0; i < n2; ++i) {
            ib.grad[i % bn2] += node.grad[i];
          }
        }
      },
      "add_bias");
}

Var clinear_chain(const Var& x, const Var& w, const Var& b, bool crelu) {
  Var h = add_bias(cmatmul(x, w), b);
  return crelu ? nn::relu(h) : h;
}

Var cmlp_forward(const Cmlp& mlp, const Var& input) {
  // parameters() lists the layer weights, then the layer biases.
  const std::vector<Var> params = mlp.parameters();
  const std::size_t layers = params.size() / 2;
  Var h = input;
  for (std::size_t l = 0; l < layers; ++l) {
    // Entry and closing layers are plain CLinear (Eq. 12); the blocks
    // between them end in CReLU.
    const bool crelu = l > 0 && l + 1 < layers;
    h = clinear_chain(h, params[l], params[layers + l], crelu);
  }
  return h;
}

}  // namespace nitho::test
