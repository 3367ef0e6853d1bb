// Tests for the autodiff engine: forward values against references,
// numerical gradient checks for every op, optimizers and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "litho/simulator.hpp"
#include "nn/autodiff.hpp"
#include "nn/ops.hpp"
#include "nn/ops_conv.hpp"
#include "nn/ops_fft.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "support/cmlp_ref.hpp"
#include "support/conv_ref.hpp"
#include "support/per_mask_ref.hpp"
#include "support/pruned_ref.hpp"
#include "support/test_support.hpp"

namespace nitho::nn {
namespace {

using LossFn = std::function<Var(const std::vector<Var>&)>;

std::vector<Var> as_leaves(const std::vector<Tensor>& ts) {
  std::vector<Var> leaves;
  for (const Tensor& t : ts) leaves.push_back(make_leaf(t, true));
  return leaves;
}

// Central-difference gradient check of a scalar loss built by f.
void expect_gradcheck(const std::vector<Tensor>& init, const LossFn& f,
                      float eps = 1e-2f, float tol = 3e-2f) {
  std::vector<Var> leaves = as_leaves(init);
  Var loss = f(leaves);
  ASSERT_EQ(loss->value.numel(), 1);
  backward(loss);

  for (std::size_t li = 0; li < init.size(); ++li) {
    ASSERT_EQ(leaves[li]->grad.numel(), leaves[li]->value.numel())
        << "no gradient reached leaf " << li;
    for (std::int64_t i = 0; i < init[li].numel(); ++i) {
      auto eval = [&](float delta) {
        std::vector<Tensor> perturbed = init;
        perturbed[li][i] += delta;
        std::vector<Var> pl = as_leaves(perturbed);
        return f(pl)->value[0];
      };
      const float numeric = (eval(eps) - eval(-eps)) / (2.0f * eps);
      const float analytic = leaves[li]->grad[i];
      EXPECT_NEAR(analytic, numeric, tol * (1.0f + std::abs(analytic) +
                                            std::abs(numeric)))
          << "leaf " << li << " elem " << i;
    }
  }
}

Tensor random_tensor(std::vector<int> shape, Rng& rng, float scale = 1.0f,
                     float offset = 0.0f) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, scale)) + offset;
  return t;
}

TEST(Tensor, ShapeAndReshape) {
  Tensor t({2, 3, 2});
  EXPECT_EQ(t.numel(), 12);
  EXPECT_EQ(t.dim(1), 3);
  Tensor r = t.reshaped({6, 2});
  EXPECT_EQ(r.dim(0), 6);
  EXPECT_THROW(t.reshaped({5, 2}), check_error);
  EXPECT_EQ(t.shape_str(), "[2,3,2]");
}

TEST(Autodiff, SimpleChainRule) {
  Tensor x({3});
  x[0] = 1.0f;
  x[1] = -2.0f;
  x[2] = 0.5f;
  Var vx = make_leaf(x, true);
  Var loss = sum(square(vx));
  backward(loss);
  EXPECT_FLOAT_EQ(loss->value[0], 1.0f + 4.0f + 0.25f);
  EXPECT_FLOAT_EQ(vx->grad[0], 2.0f);
  EXPECT_FLOAT_EQ(vx->grad[1], -4.0f);
  EXPECT_FLOAT_EQ(vx->grad[2], 1.0f);
}

TEST(Autodiff, DiamondGraphAccumulates) {
  Tensor x({1});
  x[0] = 3.0f;
  Var vx = make_leaf(x, true);
  Var a = scale(vx, 2.0f);
  Var b = scale(vx, 5.0f);
  Var loss = sum(add(a, b));  // d/dx (2x + 5x) = 7
  backward(loss);
  EXPECT_FLOAT_EQ(vx->grad[0], 7.0f);
}

TEST(Autodiff, ConstantsGetNoGradient) {
  Var c = make_leaf(Tensor({2}, 1.0f), false);
  Var p = make_leaf(Tensor({2}, 2.0f), true);
  Var loss = sum(sub(c, p));
  backward(loss);
  EXPECT_EQ(c->grad.numel(), 0);
  EXPECT_EQ(p->grad.numel(), 2);
}

TEST(Autodiff, BackwardRequiresScalar) {
  Var p = make_leaf(Tensor({3}, 1.0f), true);
  EXPECT_THROW(backward(p), check_error);
}

TEST(GradCheck, ElementwiseOps) {
  Rng rng(1);
  const std::vector<Tensor> init = {random_tensor({2, 3}, rng, 1.0f, 0.3f),
                                    random_tensor({2, 3}, rng, 1.0f, -0.2f)};
  expect_gradcheck(init, [](const std::vector<Var>& v) {
    Var t = add(v[0], v[1]);
    t = sub(t, scale(v[1], 2.5f));
    t = add(t, scale(v[0], 0.5f));
    return mean(square(t));
  });
}

TEST(GradCheck, Activations) {
  Rng rng(2);
  // Keep values away from the ReLU kink for clean finite differences.
  Tensor x = random_tensor({3, 4}, rng, 1.0f);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 0.15f) x[i] = 0.3f;
  expect_gradcheck({x}, [](const std::vector<Var>& v) {
    Var a = relu(v[0]);
    Var b = leaky_relu(v[0], 0.2f);
    Var c = sigmoid(v[0]);
    return mean(add(add(a, b), c));
  });
}

TEST(GradCheck, BiasAndReductions) {
  Rng rng(3);
  const std::vector<Tensor> init = {random_tensor({4, 3, 2}, rng),
                                    random_tensor({3, 2}, rng)};
  expect_gradcheck(init, [](const std::vector<Var>& v) {
    return mean(square(test::add_bias(v[0], v[1])));
  });
}

TEST(GradCheck, MseLoss) {
  Rng rng(4);
  Tensor target = random_tensor({3, 3}, rng);
  expect_gradcheck({random_tensor({3, 3}, rng)},
                   [target](const std::vector<Var>& v) {
                     return mse_loss(v[0], target);
                   });
}

TEST(Cmatmul, MatchesComplexReference) {
  Rng rng(6);
  const int m = 3, k = 4, n = 2;
  Tensor a = random_tensor({m, k, 2}, rng);
  Tensor b = random_tensor({k, n, 2}, rng);
  // clinear with a zero bias and no CReLU is the bare complex matmul.
  Var out = clinear(make_leaf(a), make_leaf(b), make_leaf(Tensor({n, 2})),
                    /*crelu=*/false);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::complex<float> acc{};
      for (int p = 0; p < k; ++p) {
        const std::complex<float> av(a[(i * k + p) * 2], a[(i * k + p) * 2 + 1]);
        const std::complex<float> bv(b[(p * n + j) * 2], b[(p * n + j) * 2 + 1]);
        acc += av * bv;
      }
      EXPECT_NEAR(out->value[(i * n + j) * 2], acc.real(), 1e-4);
      EXPECT_NEAR(out->value[(i * n + j) * 2 + 1], acc.imag(), 1e-4);
    }
  }
}

TEST(GradCheck, Cmatmul) {
  Rng rng(7);
  const std::vector<Tensor> init = {random_tensor({2, 3, 2}, rng),
                                    random_tensor({3, 2, 2}, rng)};
  const Var zero_bias = make_leaf(Tensor({2, 2}));
  expect_gradcheck(init, [zero_bias](const std::vector<Var>& v) {
    return mean(square(clinear(v[0], v[1], zero_bias, /*crelu=*/false)));
  });
}

TEST(GradCheck, ShapeOps) {
  Rng rng(9);
  const std::vector<Tensor> init = {random_tensor({2, 3, 2}, rng),
                                    random_tensor({1, 3, 2}, rng)};
  expect_gradcheck(init, [](const std::vector<Var>& v) {
    Var t = concat0(v[0], v[1]);           // [3,3,2]
    t = transpose01(t);                     // [3,3,2]
    t = reshape(t, {18});
    return mean(square(t));
  });
}

TEST(GradCheck, SocsFieldAndIntensity) {
  // A batch of one: the per-mask case of the shipped batched ops.
  Rng rng(10);
  Tensor spectra = random_tensor({1, 3, 3, 2}, rng, 0.3f);
  const std::vector<Tensor> init = {random_tensor({2, 3, 3, 2}, rng, 0.5f)};
  Tensor target({1, 8, 8});
  for (std::int64_t i = 0; i < target.numel(); ++i)
    target[i] = static_cast<float>(rng.uniform());
  expect_gradcheck(init, [spectra, target](const std::vector<Var>& v) {
    Var fields = socs_field_batch(v[0], spectra, 8);
    return mse_loss(abs2_sum0_batch(fields), target);
  });
}

TEST(SocsField, MatchesPhysicsSubstrate) {
  // The differentiable SOCS path must agree with litho::socs_aerial on the
  // same kernels and spectrum — this pins all FFT scaling conventions.  A
  // batch of one is the per-mask case; a batch of two checks that every
  // sample images its own spectrum.
  for (const int batch : {1, 2}) {
    Rng rng(11);
    const int r = 3, n = 5, out = 16;
    Tensor kt = random_tensor({r, n, n, 2}, rng, 0.5f);
    Tensor st = random_tensor({batch, n, n, 2}, rng, 0.3f);
    std::vector<Grid<cd>> kernels;
    for (int i = 0; i < r; ++i) {
      Grid<cd> k(n, n);
      for (int a = 0; a < n * n; ++a) {
        k[a] = cd(kt[(i * n * n + a) * 2], kt[(i * n * n + a) * 2 + 1]);
      }
      kernels.push_back(std::move(k));
    }
    Var fields = socs_field_batch(make_leaf(kt), st, out);
    Var intensity = abs2_sum0_batch(fields);
    for (int b = 0; b < batch; ++b) {
      Grid<cd> spectrum(n, n);
      for (int a = 0; a < n * n; ++a) {
        const std::int64_t si = (static_cast<std::int64_t>(b) * n * n + a) * 2;
        spectrum[a] = cd(st[si], st[si + 1]);
      }
      const Grid<double> expected = socs_aerial(kernels, spectrum, out);
      for (int a = 0; a < out * out; ++a) {
        EXPECT_NEAR(intensity->value[b * out * out + a], expected[a],
                    1e-3 * (1.0 + std::abs(expected[a])))
            << "batch " << batch << " sample " << b << " pixel " << a;
      }
    }
  }
}

// The batched training ops must reproduce the per-mask graph chain bit for
// bit: same forward values, same loss, and — because the batched backward
// accumulates the batch in descending order, matching the reverse
// topological order of the chained graph — the same kernel gradients.
void expect_batched_matches_chain(int batch, int r, int n, int out_px) {
  Rng rng(23);
  Tensor kt = random_tensor({r, n, n, 2}, rng, 0.5f);
  Tensor spectra = random_tensor({batch, n, n, 2}, rng, 0.3f);
  Tensor targets = random_tensor({batch, out_px, out_px}, rng, 0.2f, 0.5f);

  // Legacy: one socs_field/abs2_sum0/mse_loss chain per sample.
  Var k_legacy = make_leaf(kt, true);
  Var loss_legacy;
  const std::int64_t splane = static_cast<std::int64_t>(n) * n * 2;
  const std::int64_t tplane = static_cast<std::int64_t>(out_px) * out_px;
  std::vector<Var> preds;
  for (int b = 0; b < batch; ++b) {
    Tensor spec({n, n, 2});
    for (std::int64_t i = 0; i < splane; ++i) spec[i] = spectra[b * splane + i];
    Tensor tgt({out_px, out_px});
    for (std::int64_t i = 0; i < tplane; ++i) tgt[i] = targets[b * tplane + i];
    Var pred = test::abs2_sum0(test::socs_field(k_legacy, spec, out_px));
    preds.push_back(pred);
    Var l = mse_loss(pred, tgt);
    loss_legacy = loss_legacy ? add(loss_legacy, l) : l;
  }
  backward(loss_legacy);

  // Batched: one graph over the stacked constants.
  Var k_batched = make_leaf(kt, true);
  Var fields = socs_field_batch(k_batched, spectra, out_px);
  Var pred_b = abs2_sum0_batch(fields);
  Var loss_batched = mse_loss_batch_ordered(pred_b, targets);
  backward(loss_batched);

  EXPECT_EQ(loss_legacy->value[0], loss_batched->value[0]);
  for (int b = 0; b < batch; ++b) {
    const Tensor& pv = preds[static_cast<std::size_t>(b)]->value;
    for (std::int64_t i = 0; i < tplane; ++i) {
      ASSERT_EQ(pv[i], pred_b->value[b * tplane + i])
          << "intensity sample " << b << " elem " << i;
    }
  }
  ASSERT_EQ(k_legacy->grad.numel(), k_batched->grad.numel());
  for (std::int64_t i = 0; i < k_legacy->grad.numel(); ++i) {
    ASSERT_EQ(k_legacy->grad[i], k_batched->grad[i]) << "kernel grad " << i;
  }
}

TEST(BatchedSocs, BitIdenticalToPerMaskChainPow2) {
  expect_batched_matches_chain(/*batch=*/3, /*r=*/2, /*n=*/5, /*out_px=*/16);
}

TEST(BatchedSocs, BitIdenticalToPerMaskChainBluestein) {
  // out_px 12 and 15 are non-pow2: the float Bluestein plans and their
  // workspace scratch are exercised.
  expect_batched_matches_chain(3, 2, 5, 12);
  expect_batched_matches_chain(2, 3, 5, 15);
}

TEST(BatchedSocs, BitIdenticalAcrossSeveralColumnBlocks) {
  // out_px 64 splits the float column pass into several L1 blocks and the
  // n = 29 band wraps across row 0; out_px 45 (Bluestein) ends in a
  // partial block.
  expect_batched_matches_chain(2, 2, 29, 64);
  expect_batched_matches_chain(2, 2, 9, 45);
}

TEST(BatchedSocs, SingleSampleBatchDegeneratesToChain) {
  expect_batched_matches_chain(1, 2, 3, 8);
}

TEST(BatchedSocs, BitIdenticalUnderWorkerPool) {
  // Force the shared pool on (this box is 1-core, where parallel_for runs
  // inline): the batched backward's per-kernel tasks and the workspace
  // pool must not change any bit.
  set_parallel_workers(4);
  expect_batched_matches_chain(3, 5, 5, 16);
  set_parallel_workers(0);
}

TEST(GradCheck, BatchedSocsPipeline) {
  Rng rng(29);
  Tensor spectra = random_tensor({2, 3, 3, 2}, rng, 0.3f);
  const std::vector<Tensor> init = {random_tensor({2, 3, 3, 2}, rng, 0.5f)};
  Tensor targets = random_tensor({2, 8, 8}, rng, 0.2f, 0.5f);
  expect_gradcheck(init, [spectra, targets](const std::vector<Var>& v) {
    Var pred = abs2_sum0_batch(socs_field_batch(v[0], spectra, 8));
    return scale(mse_loss_batch_ordered(pred, targets), 0.5f);
  });
}

TEST(GraphArena, RecyclesNodesAndBuffersWithoutChangingResults) {
  Rng rng(31);
  const Tensor kt = random_tensor({2, 3, 3, 2}, rng, 0.5f);
  const Tensor spectra = random_tensor({2, 3, 3, 2}, rng, 0.3f);
  const Tensor targets = random_tensor({2, 8, 8}, rng, 0.2f, 0.5f);

  auto run_step = [&](const Tensor& k) {
    Var leaf = make_leaf(k, true);
    Var loss = mse_loss_batch_ordered(
        abs2_sum0_batch(socs_field_batch(leaf, spectra, 8)), targets);
    backward(loss);
    return std::pair<float, Tensor>(loss->value[0], leaf->grad);
  };

  const auto [plain_loss, plain_grad] = run_step(kt);

  GraphArena arena;
  std::size_t warm_capacity = 0;
  for (int step = 0; step < 4; ++step) {
    arena.reset();
    GraphArena::Scope scope(arena);
    const auto [loss, grad] = run_step(kt);
    EXPECT_EQ(loss, plain_loss) << "step " << step;
    ASSERT_EQ(grad.numel(), plain_grad.numel());
    for (std::int64_t i = 0; i < grad.numel(); ++i) {
      ASSERT_EQ(grad[i], plain_grad[i]) << "step " << step << " elem " << i;
    }
    if (step == 1) warm_capacity = arena.node_capacity();
  }
  // After warmup the pool stops growing and buffers actually recycle.
  EXPECT_EQ(arena.node_capacity(), warm_capacity);
  EXPECT_GT(arena.tensors_reused(), 0u);
}

TEST(GraphArena, EvictsExternallyHeldNodes) {
  GraphArena arena;
  Var kept;
  {
    GraphArena::Scope scope(arena);
    kept = make_leaf(Tensor({3}, 2.0f), false);
  }
  arena.reset();  // kept is still referenced: evicted, not recycled
  EXPECT_EQ(kept->value.numel(), 3);
  EXPECT_EQ(kept->value[0], 2.0f);
  {
    GraphArena::Scope scope(arena);
    Var fresh = make_leaf(Tensor({3}, 7.0f), false);
    EXPECT_NE(fresh.get(), kept.get());
  }
  arena.reset();
  EXPECT_EQ(kept->value[2], 2.0f);
}

TEST(GradCheck, Fft2cCrop) {
  Rng rng(20);
  expect_gradcheck({random_tensor({1, 8, 8}, rng)},
                   [](const std::vector<Var>& v) {
                     return mean(square(fft2c_crop_batch(v[0], 5)));
                   });
}

TEST(Fft2cCrop, DcIsMean) {
  // Batch of one, then a batch of two: each sample's DC is its own mean.
  for (const int batch : {1, 2}) {
    Rng rng(21);
    Tensor masks = random_tensor({batch, 8, 8}, rng, 1.0f, 0.5f);
    Var spec = fft2c_crop_batch(make_leaf(masks), 3);
    for (int b = 0; b < batch; ++b) {
      float mean_v = 0.0f;
      for (std::int64_t i = 0; i < 64; ++i) mean_v += masks[b * 64 + i];
      mean_v /= 64.0f;
      // Centered crop: DC sits at (1,1) of each 3x3 crop.
      const float* dc = spec->value.data() + b * 3 * 3 * 2 + (1 * 3 + 1) * 2;
      EXPECT_NEAR(dc[0], mean_v, 1e-5) << "sample " << b;
      EXPECT_NEAR(dc[1], 0.0f, 1e-5) << "sample " << b;
    }
  }
}

TEST(GradCheck, SocsFieldFromSpectrum) {
  Rng rng(22);
  Tensor kernels = random_tensor({2, 3, 3, 2}, rng, 0.5f);
  expect_gradcheck({random_tensor({1, 3, 3, 2}, rng, 0.3f)},
                   [kernels](const std::vector<Var>& v) {
                     return mean(square(abs2_sum0_batch(
                         socs_field_from_spectrum_batch(v[0], kernels, 8))));
                   });
}

TEST(SocsFieldFromSpectrum, MatchesKernelSidePath) {
  // Swapping which argument is differentiable must not change the value.
  Rng rng(23);
  Tensor kernels = random_tensor({3, 5, 5, 2}, rng, 0.5f);
  Tensor spectra = random_tensor({1, 5, 5, 2}, rng, 0.3f);
  Var a = socs_field_batch(make_leaf(kernels), spectra, 16);
  Var b = socs_field_from_spectrum_batch(make_leaf(spectra), kernels, 16);
  for (std::int64_t i = 0; i < a->value.numel(); ++i) {
    EXPECT_NEAR(a->value[i], b->value[i], 1e-5);
  }
}

// The OPC ops (fft2c_crop_batch -> socs_field_from_spectrum_batch ->
// abs2_sum0_batch) must reproduce one per-mask oracle chain per sample bit
// for bit: the same intensities and — each sample's mse loss seeing the
// root gradient unchanged — the same mask gradients.
void expect_opc_ops_match_chain(int batch, int r, int n, int mask_px,
                                int out_px) {
  Rng rng(37);
  Tensor kt = random_tensor({r, n, n, 2}, rng, 0.5f);
  Tensor masks = random_tensor({batch, mask_px, mask_px}, rng, 0.3f, 0.5f);
  Tensor targets = random_tensor({batch, out_px, out_px}, rng, 0.2f, 0.5f);
  const std::int64_t mplane = static_cast<std::int64_t>(mask_px) * mask_px;
  const std::int64_t tplane = static_cast<std::int64_t>(out_px) * out_px;

  Var m_batched = make_leaf(masks, true);
  Var pred_b = abs2_sum0_batch(socs_field_from_spectrum_batch(
      fft2c_crop_batch(m_batched, n), kt, out_px));
  Var loss_b = mse_loss_batch_ordered(pred_b, targets);
  backward(loss_b);

  float loss_fold = 0.0f;
  for (int b = 0; b < batch; ++b) {
    Tensor mask({mask_px, mask_px});
    for (std::int64_t i = 0; i < mplane; ++i) mask[i] = masks[b * mplane + i];
    Tensor tgt({out_px, out_px});
    for (std::int64_t i = 0; i < tplane; ++i) tgt[i] = targets[b * tplane + i];
    Var m = make_leaf(mask, true);
    Var pred = test::abs2_sum0(test::socs_field_from_spectrum(
        test::fft2c_crop(m, n), kt, out_px));
    Var l = mse_loss(pred, tgt);
    backward(l);
    loss_fold = b == 0 ? l->value[0] : loss_fold + l->value[0];
    for (std::int64_t i = 0; i < tplane; ++i) {
      ASSERT_EQ(pred->value[i], pred_b->value[b * tplane + i])
          << "intensity sample " << b << " elem " << i;
    }
    for (std::int64_t i = 0; i < mplane; ++i) {
      ASSERT_EQ(m->grad[i], m_batched->grad[b * mplane + i])
          << "mask grad sample " << b << " elem " << i;
    }
  }
  EXPECT_EQ(loss_fold, loss_b->value[0]);
}

TEST(BatchedOpcOps, BitIdenticalToPerMaskChainPow2) {
  expect_opc_ops_match_chain(/*batch=*/3, /*r=*/2, /*n=*/5, /*mask_px=*/16,
                             /*out_px=*/16);
}

TEST(BatchedOpcOps, BitIdenticalToPerMaskChainBluestein) {
  // Non-pow2 out_px runs the float Bluestein plans in the SOCS pass; a
  // non-pow2 mask_px runs them in the crop too.
  expect_opc_ops_match_chain(3, 2, 5, 16, 12);
  expect_opc_ops_match_chain(3, 3, 5, 15, 15);
}

TEST(BatchedOpcOps, BitIdenticalAcrossSeveralColumnBlocks) {
  // out_px 64 splits the float column passes into several L1 blocks and the
  // n = 29 band wraps across row 0; out_px 45 (Bluestein) ends in a
  // partial block.
  expect_opc_ops_match_chain(3, 2, 29, 64, 64);
  expect_opc_ops_match_chain(3, 2, 9, 45, 45);
}

TEST(BatchedOpcOps, BitIdenticalUnderWorkerPool) {
  set_parallel_workers(4);
  expect_opc_ops_match_chain(3, 5, 5, 16, 16);
  set_parallel_workers(0);
}

TEST(GradCheck, SpectralConv) {
  Rng rng(12);
  const std::vector<Tensor> init = {random_tensor({2, 8, 8}, rng, 0.5f),
                                    random_tensor({2, 2, 3, 3, 2}, rng, 0.5f)};
  expect_gradcheck(init, [](const std::vector<Var>& v) {
    return mean(square(spectral_conv2d(v[0], v[1])));
  });
}

TEST(SpectralConv, DcWeightScalesMean) {
  // With a single mode (DC) and unit weight, the op averages the input.
  Tensor x({1, 4, 4});
  Rng rng(13);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform());
  Tensor w({1, 1, 1, 1, 2});
  w[0] = 1.0f;  // real unit weight
  Var y = spectral_conv2d(make_leaf(x), make_leaf(w));
  float mean_x = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i) mean_x += x[i];
  mean_x /= 16.0f;
  for (int i = 0; i < 16; ++i) EXPECT_NEAR(y->value[i], mean_x, 1e-5);
}

TEST(GradCheck, Conv2d) {
  Rng rng(14);
  const std::vector<Tensor> init = {random_tensor({2, 5, 5}, rng, 0.5f),
                                    random_tensor({3, 2, 3, 3}, rng, 0.5f),
                                    random_tensor({3}, rng, 0.5f)};
  expect_gradcheck(init, [](const std::vector<Var>& v) {
    return mean(square(conv2d(v[0], v[1], v[2])));
  });
}

TEST(Conv2d, IdentityKernel) {
  Rng rng(15);
  Tensor x = random_tensor({1, 4, 4}, rng);
  Tensor w({1, 1, 3, 3}, 0.0f);
  w[4] = 1.0f;  // center tap
  Tensor b({1}, 0.0f);
  Var y = conv2d(make_leaf(x), make_leaf(w), make_leaf(b));
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(y->value[i], x[i]);
}

TEST(GradCheck, PoolAndUpsample) {
  Rng rng(16);
  expect_gradcheck({random_tensor({2, 4, 4}, rng)},
                   [](const std::vector<Var>& v) {
                     return mean(square(upsample2(avg_pool2(v[0]))));
                   });
}

TEST(Optimizer, AdamMinimizesQuadratic) {
  Tensor x({4}, 5.0f);
  Var vx = make_leaf(x, true);
  Adam opt({vx}, 0.2f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    Var loss = sum(square(vx));
    backward(loss);
    opt.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(vx->value[i], 0.0f, 1e-2f);
}

TEST(Optimizer, SgdWithMomentumMinimizes) {
  Tensor x({2}, 3.0f);
  Var vx = make_leaf(x, true);
  Sgd opt({vx}, 0.05f, 0.9f);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    Var loss = sum(square(vx));
    backward(loss);
    opt.step();
  }
  for (int i = 0; i < 2; ++i) EXPECT_NEAR(vx->value[i], 0.0f, 1e-2f);
}

TEST(Optimizer, RejectsConstants) {
  Var c = make_leaf(Tensor({1}), false);
  EXPECT_THROW(Adam({c}), check_error);
}

TEST(Serialize, RoundTrip) {
  Rng rng(17);
  Var a = make_leaf(random_tensor({3, 2}, rng), true);
  Var b = make_leaf(random_tensor({4}, rng), true);
  const std::vector<Var> params = {a, b};
  const std::vector<float> blob = dump_parameters(params);
  EXPECT_EQ(blob.size(), 10u);
  EXPECT_EQ(parameter_count(params), 10);
  EXPECT_EQ(parameter_bytes(params), 40);

  Var a2 = make_leaf(Tensor({3, 2}), true);
  Var b2 = make_leaf(Tensor({4}), true);
  load_parameters(std::vector<Var>{a2, b2}, blob);
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(a2->value[i], a->value[i]);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(b2->value[i], b->value[i]);

  EXPECT_THROW(load_parameters(std::vector<Var>{a2}, blob), check_error);
}

// --------------------------------------------------------------------------
// Double-precision finite differences for the complex MLP building block
// (CLinear -> CReLU, one clinear node).  The float-based
// expect_gradcheck above can only certify ~3e-2; here the loss is replicated
// in double so central differences resolve the gradient to ~1e-9 and the
// float backprop must match to 1e-5 on both real and imaginary slots.
// --------------------------------------------------------------------------

// Loss of the block in double: L = sum |CReLU(x w + b)|^2 over all points
// (sum |x w + b|^2 without crelu).
// x: [P, in, 2], w: [in, out, 2], b: [out, 2], all flattened row-major.
// min_preact (optional) receives the smallest |component| entering the ReLU
// so tests can assert the evaluation point is safely away from the kink.
double complex_block_loss(const std::vector<double>& x,
                          const std::vector<double>& w,
                          const std::vector<double>& b, int P, int in, int out,
                          double* min_preact = nullptr, bool crelu = true) {
  double loss = 0.0;
  double min_abs = std::numeric_limits<double>::infinity();
  for (int p = 0; p < P; ++p) {
    for (int o = 0; o < out; ++o) {
      double re = b[2 * o], im = b[2 * o + 1];
      for (int i = 0; i < in; ++i) {
        const double xr = x[(p * in + i) * 2], xi = x[(p * in + i) * 2 + 1];
        const double wr = w[(i * out + o) * 2], wi = w[(i * out + o) * 2 + 1];
        re += xr * wr - xi * wi;
        im += xr * wi + xi * wr;
      }
      min_abs = std::min({min_abs, std::abs(re), std::abs(im)});
      // CReLU acts per component.
      const double ar = !crelu || re > 0.0 ? re : 0.0;
      const double ai = !crelu || im > 0.0 ? im : 0.0;
      loss += ar * ar + ai * ai;
    }
  }
  if (min_preact) *min_preact = min_abs;
  return loss;
}

TEST(GradCheck, ComplexBlockRealImagPerturbationTight) {
  const int P = 4, in = 3, out = 3;
  Rng rng(21);
  const std::vector<Tensor> init = {random_tensor({P, in, 2}, rng),
                                    random_tensor({in, out, 2}, rng, 0.5f),
                                    random_tensor({out, 2}, rng, 0.5f)};

  std::vector<Var> leaves = as_leaves(init);
  Var loss =
      sum(square(clinear(leaves[0], leaves[1], leaves[2], /*crelu=*/true)));
  backward(loss);

  // Double copies of the float parameters (exact conversion).
  std::vector<std::vector<double>> params(3);
  for (int li = 0; li < 3; ++li) {
    for (std::int64_t i = 0; i < init[li].numel(); ++i) {
      params[li].push_back(static_cast<double>(init[li][i]));
    }
  }
  // The check is only valid away from the ReLU kink; guard against future
  // seed changes silently landing on it.
  double min_preact = 0.0;
  complex_block_loss(params[0], params[1], params[2], P, in, out, &min_preact);
  ASSERT_GT(min_preact, 1e-3);

  const double eps = 1e-6;
  for (int li = 0; li < 3; ++li) {
    for (std::size_t i = 0; i < params[li].size(); ++i) {
      auto eval = [&](double delta) {
        std::vector<std::vector<double>> p = params;
        p[li][i] += delta;
        return complex_block_loss(p[0], p[1], p[2], P, in, out);
      };
      const double fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
      const double analytic = static_cast<double>(leaves[li]->grad[i]);
      const char* slot = (i % 2 == 0) ? "re" : "im";
      EXPECT_NEAR(analytic, fd, 1e-5 * (1.0 + std::abs(analytic) + std::abs(fd)))
          << "leaf " << li << " elem " << i << " (" << slot << " slot)";
    }
  }
}


// The real-lifted entry: a real x [P, in] is the complex x + jx, so the
// double loss runs on the lifted copy.  x takes no gradient; W and b must
// match central differences on both slots, with and without CReLU.
TEST(GradCheck, ClinearRealLiftedEntryTight) {
  const int P = 5, in = 4, out = 3;
  Rng rng(22);
  const Tensor x = random_tensor({P, in}, rng);
  const std::vector<Tensor> init = {random_tensor({in, out, 2}, rng, 0.5f),
                                    random_tensor({out, 2}, rng, 0.5f)};
  std::vector<double> lifted;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    lifted.push_back(static_cast<double>(x[i]));
    lifted.push_back(static_cast<double>(x[i]));
  }
  for (const bool crelu : {false, true}) {
    std::vector<Var> leaves = as_leaves(init);
    Var loss = sum(square(clinear(make_leaf(x), leaves[0], leaves[1], crelu)));
    backward(loss);
    std::vector<std::vector<double>> params(2);
    for (int li = 0; li < 2; ++li) {
      for (std::int64_t i = 0; i < init[li].numel(); ++i) {
        params[li].push_back(static_cast<double>(init[li][i]));
      }
    }
    double min_preact = 0.0;
    complex_block_loss(lifted, params[0], params[1], P, in, out, &min_preact,
                       crelu);
    if (crelu) {
      ASSERT_GT(min_preact, 1e-3);
    }
    const double eps = 1e-6;
    for (int li = 0; li < 2; ++li) {
      for (std::size_t i = 0; i < params[li].size(); ++i) {
        auto eval = [&](double delta) {
          std::vector<std::vector<double>> p = params;
          p[li][i] += delta;
          return complex_block_loss(lifted, p[0], p[1], P, in, out, nullptr,
                                    crelu);
        };
        const double fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
        const double analytic = static_cast<double>(leaves[li]->grad[i]);
        EXPECT_NEAR(analytic, fd,
                    1e-5 * (1.0 + std::abs(analytic) + std::abs(fd)))
            << "crelu " << crelu << " leaf " << li << " elem " << i;
      }
    }
  }
}

TEST(Clinear, RealInputMustNotRequireGrad) {
  const Var x = make_leaf(Tensor({3, 2}), /*requires_grad=*/true);
  const Var w = make_leaf(Tensor({2, 4, 2}), true);
  const Var b = make_leaf(Tensor({4, 2}), true);
  EXPECT_THROW(clinear(x, w, b, false), check_error);
  EXPECT_THROW(clinear(make_leaf(Tensor({3, 3})), w, b, false), check_error);
  const Var wrong_bias = make_leaf(Tensor({3, 2}));
  EXPECT_THROW(clinear(make_leaf(Tensor({3, 2, 2})), w, wrong_bias, false),
               check_error);
}

// ---- clinear against the oracle chain, bit for bit ----------------------
// tests/support/cmlp_ref.hpp keeps the historical layer chain (planar
// complex matmul -> add_bias -> relu).  The fused node must reproduce its
// forward values and every gradient bit for bit, for complex and
// real-lifted inputs, on every SIMD arm, at 1 and 4 workers.

// A scalar sink that hands its input a fixed upstream gradient (assigned,
// not added, so -0.0f entries reach the layer as they are).
Var seed_gradient(const Var& y, const Tensor& upstream) {
  return make_node(Tensor({1}), {y},
                   [upstream](Node& node) {
                     Node& iy = *node.inputs[0];
                     iy.ensure_grad();
                     std::copy(upstream.data(),
                               upstream.data() + upstream.numel(),
                               iy.grad.data());
                   },
                   "seed_gradient");
}

struct LayerBits {
  Tensor y, dx, dw, db;
};

struct LayerCase {
  int m, k, n;
  bool real_x, crelu;
};

LayerBits run_layer(const LayerCase& c, const Tensor& x, const Tensor& w,
                    const Tensor& b, const Tensor& upstream, bool fused) {
  Var xl;
  if (c.real_x && fused) {
    // The real plane; the oracle takes the lifted complex tensor.
    Tensor plane({c.m, c.k});
    for (std::int64_t i = 0; i < plane.numel(); ++i) plane[i] = x[2 * i];
    xl = make_leaf(plane, false);
  } else {
    xl = make_leaf(x, !c.real_x);
  }
  const Var wl = make_leaf(w, true), bl = make_leaf(b, true);
  const Var y = fused ? clinear(xl, wl, bl, c.crelu)
                      : test::clinear_chain(xl, wl, bl, c.crelu);
  backward(seed_gradient(y, upstream));
  return {y->value, xl->grad, wl->grad, bl->grad};
}

void expect_clinear_matches_chain(const LayerCase& c) {
  Rng rng(static_cast<std::uint64_t>(41 + c.m * 7 + c.k * 3 + c.n));
  Tensor x = random_tensor({c.m, c.k, 2}, rng);
  if (c.real_x) {
    for (std::int64_t i = 0; i < x.numel(); i += 2) x[i + 1] = x[i];
  }
  const Tensor w = random_tensor({c.k, c.n, 2}, rng, 0.3f);
  const Tensor b = random_tensor({c.n, 2}, rng, 0.5f);
  Tensor upstream = random_tensor({c.m, c.n, 2}, rng);
  // Signed zeros in the upstream gradient: the chain's zero-initialized
  // grad buffers turn -0.0f into +0.0f, and so must the fused node.
  for (std::int64_t i = 0; i < upstream.numel(); i += 7) {
    upstream[i] = (i / 7) % 2 == 0 ? -0.0f : 0.0f;
  }

  test::ArmGuard guard;
  LayerBits ref;
  {
    simd::force_arm(simd::Arm::kScalar);
    set_parallel_workers(1);
    ref = run_layer(c, x, w, b, upstream, /*fused=*/false);
  }
  std::vector<simd::Arm> arms = test::vector_arms();
  arms.insert(arms.begin(), simd::Arm::kScalar);
  for (const simd::Arm arm : arms) {
    simd::force_arm(arm);
    for (const int workers : {1, 4}) {
      set_parallel_workers(workers);
      const LayerBits got = run_layer(c, x, w, b, upstream, /*fused=*/true);
      const std::string where = std::string(simd::arm_name(arm)) + " w" +
                                std::to_string(workers) + " m" +
                                std::to_string(c.m) + " k" +
                                std::to_string(c.k) + " n" +
                                std::to_string(c.n) +
                                (c.real_x ? " real" : " complex") +
                                (c.crelu ? " crelu" : "");
      EXPECT_TRUE(test::tensors_bit_identical(got.y, ref.y)) << "y " << where;
      EXPECT_TRUE(test::tensors_bit_identical(got.dw, ref.dw))
          << "dW " << where;
      EXPECT_TRUE(test::tensors_bit_identical(got.db, ref.db))
          << "db " << where;
      if (c.real_x) {
        EXPECT_EQ(got.dx.numel(), 0) << where;
      } else {
        EXPECT_TRUE(test::tensors_bit_identical(got.dx, ref.dx))
            << "dX " << where;
      }
    }
  }
  set_parallel_workers(0);
}

TEST(Clinear, BitIdenticalToChainAtTableOneShapes) {
  // P = 841 (kdim 29), F = 96, hidden 48, rank 24: entry (real-lifted and
  // complex), a CReLU block and the closing layer.  Each GEMM is above
  // kGemmParallelMacs, so 4 workers split its rows.
  for (const bool real_x : {true, false}) {
    expect_clinear_matches_chain({841, 96, 48, real_x, false});
  }
  expect_clinear_matches_chain({841, 48, 48, false, true});
  expect_clinear_matches_chain({841, 48, 24, false, false});
}

TEST(Clinear, BitIdenticalToChainAtOddShapes) {
  // m not a multiple of the 4-row panel, n not a multiple of 16 (every
  // vector tail), and one ragged shape above the pool threshold.
  for (const LayerCase& c :
       {LayerCase{7, 5, 19, false, true}, LayerCase{7, 5, 19, true, true},
        LayerCase{13, 9, 33, false, false}, LayerCase{13, 9, 33, true, false},
        LayerCase{1, 3, 1, false, true}, LayerCase{203, 97, 37, true, true},
        LayerCase{203, 97, 37, false, true}}) {
    expect_clinear_matches_chain(c);
  }
}


// ---- conv2d against the historical-kernel oracle, bit for bit ----------
// tests/support/conv_ref.hpp keeps the historical conv2d (zero-skip
// gemm_nn / gemm_tn, per-element gemm_nt, transposed upstream copy).  On
// finite inputs the shipped conv2d, all three GEMMs on gemm_dense, must
// reproduce its output and its x, W and b gradients bit for bit: skipping
// a zero left-hand entry drops a +-0 product, which cannot change a fold
// that starts at +0.0f.  Two backward passes accumulate into the same
// gradients, on every SIMD arm, at 1 and 4 workers.

struct ConvCase {
  int cin, cout, h, w, kh, kw;
};

struct ConvBits {
  Tensor y, dx, dw, db;
};

ConvBits run_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                  const std::vector<Tensor>& upstreams, bool oracle) {
  const Var xl = make_leaf(x, true), wl = make_leaf(w, true),
            bl = make_leaf(b, true);
  Var y;
  for (const Tensor& upstream : upstreams) {
    y = oracle ? test::conv2d_ref(xl, wl, bl) : conv2d(xl, wl, bl);
    backward(seed_gradient(y, upstream));
  }
  return {y->value, xl->grad, wl->grad, bl->grad};
}

void expect_conv2d_matches_oracle(const ConvCase& c) {
  Rng rng(static_cast<std::uint64_t>(61 + c.cin * 13 + c.cout * 7 + c.h * 3 +
                                     c.w + c.kh));
  const Tensor x = random_tensor({c.cin, c.h, c.w}, rng);
  const Tensor w = random_tensor({c.cout, c.cin, c.kh, c.kw}, rng, 0.3f);
  const Tensor b = random_tensor({c.cout}, rng, 0.5f);
  // Half of each upstream gradient is zero, as behind a ReLU, some of it
  // -0.0f, so the oracle's zero-skip is taken.
  std::vector<Tensor> upstreams;
  for (int pass = 0; pass < 2; ++pass) {
    Tensor up = random_tensor({c.cout, c.h, c.w}, rng);
    for (std::int64_t i = 0; i < up.numel(); ++i) {
      if (rng.uniform() < 0.5) up[i] = i % 3 == 0 ? -0.0f : 0.0f;
    }
    upstreams.push_back(std::move(up));
  }

  test::ArmGuard guard;
  ConvBits ref;
  {
    simd::force_arm(simd::Arm::kScalar);
    set_parallel_workers(1);
    ref = run_conv(x, w, b, upstreams, /*oracle=*/true);
  }
  std::vector<simd::Arm> arms = test::vector_arms();
  arms.insert(arms.begin(), simd::Arm::kScalar);
  for (const simd::Arm arm : arms) {
    simd::force_arm(arm);
    for (const int workers : {1, 4}) {
      set_parallel_workers(workers);
      const ConvBits got = run_conv(x, w, b, upstreams, /*oracle=*/false);
      const std::string where =
          std::string(simd::arm_name(arm)) + " w" + std::to_string(workers) +
          " cin" + std::to_string(c.cin) + " cout" + std::to_string(c.cout) +
          " " + std::to_string(c.h) + "x" + std::to_string(c.w) + " k" +
          std::to_string(c.kh) + "x" + std::to_string(c.kw);
      EXPECT_TRUE(test::tensors_bit_identical(got.y, ref.y)) << "y " << where;
      EXPECT_TRUE(test::tensors_bit_identical(got.dx, ref.dx))
          << "dx " << where;
      EXPECT_TRUE(test::tensors_bit_identical(got.dw, ref.dw))
          << "dW " << where;
      EXPECT_TRUE(test::tensors_bit_identical(got.db, ref.db))
          << "db " << where;
    }
  }
  set_parallel_workers(0);
}

TEST(Conv2d, BitIdenticalToOracleAtOddShapes) {
  // Panel-ragged pixel counts, Cout and K off every vector width, a 5x3
  // kernel and a one-channel lift layer.
  for (const ConvCase& c :
       {ConvCase{3, 5, 7, 9, 3, 3}, ConvCase{2, 3, 6, 11, 5, 3},
        ConvCase{1, 12, 9, 5, 3, 3}, ConvCase{4, 6, 1, 1, 3, 3}}) {
    expect_conv2d_matches_oracle(c);
  }
}

TEST(Conv2d, BitIdenticalToOracleAtHeadLayers) {
  // Cout = 1, the DOINN / TEMPO output layers: a one-column forward GEMM
  // and one-row W gradient.  The 32x32 case is above kGemmParallelMacs.
  expect_conv2d_matches_oracle({12, 1, 13, 7, 3, 3});
  expect_conv2d_matches_oracle({32, 1, 32, 32, 3, 3});
}

TEST(Conv2d, BitIdenticalToOracleAboveParallelThreshold) {
  // Every GEMM above kGemmParallelMacs, so 4 workers split its rows.
  expect_conv2d_matches_oracle({12, 12, 32, 32, 3, 3});
  expect_conv2d_matches_oracle({24, 12, 17, 19, 3, 3});
}

TEST(Conv2d, NanInInputReachesWeightGradient) {
  // A NaN in x whose every product with the upstream gradient meets an
  // exact zero: the dense fold propagates it into dW (0 * NaN = NaN),
  // where the oracle's zero-skip hid it.  dx and db never read x.
  Rng rng(17);
  const int cin = 2, cout = 3, h = 8, wd = 8, qy = 4, qx = 5;
  Tensor x = random_tensor({cin, h, wd}, rng);
  x[qy * wd + qx] = std::numeric_limits<float>::quiet_NaN();  // channel 0
  const Tensor w = random_tensor({cout, cin, 3, 3}, rng, 0.3f);
  const Tensor b = random_tensor({cout}, rng);
  Tensor up = random_tensor({cout, h, wd}, rng);
  // Zero G over the 3x3 neighbourhood of the NaN: the only pixels whose
  // im2col rows hold it.
  for (int co = 0; co < cout; ++co) {
    for (int y = qy - 1; y <= qy + 1; ++y) {
      for (int xx = qx - 1; xx <= qx + 1; ++xx) {
        up[(co * h + y) * wd + xx] = 0.0f;
      }
    }
  }
  const auto has_nan = [](const Tensor& t) {
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      if (std::isnan(t[i])) return true;
    }
    return false;
  };
  const ConvBits ref = run_conv(x, w, b, {up}, /*oracle=*/true);
  const ConvBits got = run_conv(x, w, b, {up}, /*oracle=*/false);
  EXPECT_FALSE(has_nan(ref.dw)) << "the oracle's zero-skip hides the NaN";
  EXPECT_TRUE(has_nan(got.dw)) << "the NaN must reach dW";
  for (int co = 0; co < cout; ++co) {
    for (int tap = 0; tap < 9; ++tap) {
      // Channel 0's taps read the NaN, channel 1's never do.
      EXPECT_TRUE(std::isnan(got.dw[(co * cin + 0) * 9 + tap]))
          << "co " << co << " tap " << tap;
      EXPECT_FALSE(std::isnan(got.dw[(co * cin + 1) * 9 + tap]))
          << "co " << co << " tap " << tap;
    }
  }
  EXPECT_TRUE(test::tensors_bit_identical(got.dx, ref.dx));
  EXPECT_TRUE(test::tensors_bit_identical(got.db, ref.db));
  EXPECT_TRUE(test::tensors_bit_identical(got.y, ref.y));
}

// ---- SOCS intensity nodes against the two-node chain, bit for bit -------
// socs_intensity_batch must reproduce abs2_sum0_batch(socs_field_batch(..))
// and socs_intensity_from_spectrum_batch must reproduce
// abs2_sum0_batch(socs_field_from_spectrum_batch(..)): the same
// intensities, the same ordered loss and the same kernel / spectrum
// gradients, on every SIMD arm at 1 and 4 workers.  A second pass seeds
// the intensity with a fixed upstream holding -0.0f entries, which the
// chain's zero-initialized field gradient turns into +0.0f.

struct SocsCase {
  int batch, r, n, out_px;
};

struct SocsBits {
  Tensor intensity, loss, grad;
};

SocsBits run_socs(const SocsCase& c, const Tensor& kt, const Tensor& spectra,
                  const Tensor& targets, const Tensor* upstream,
                  bool spectrum_side, bool fused) {
  const Var k = make_leaf(kt, !spectrum_side);
  const Var sp = make_leaf(spectra, spectrum_side);
  Var pred;
  if (spectrum_side) {
    pred = fused ? socs_intensity_from_spectrum_batch(sp, kt, c.out_px)
                 : abs2_sum0_batch(
                       socs_field_from_spectrum_batch(sp, kt, c.out_px));
  } else {
    pred = fused ? socs_intensity_batch(k, spectra, c.out_px)
                 : abs2_sum0_batch(socs_field_batch(k, spectra, c.out_px));
  }
  const Var loss = upstream != nullptr
                       ? seed_gradient(pred, *upstream)
                       : mse_loss_batch_ordered(pred, targets);
  backward(loss);
  return {pred->value, loss->value, spectrum_side ? sp->grad : k->grad};
}

// The fused forward with nothing requiring a gradient (no fields kept).
Tensor socs_intensity_no_grad(const SocsCase& c, const Tensor& kt,
                              const Tensor& spectra, bool spectrum_side) {
  const Var v = spectrum_side
                    ? socs_intensity_from_spectrum_batch(make_leaf(spectra),
                                                         kt, c.out_px)
                    : socs_intensity_batch(make_leaf(kt), spectra, c.out_px);
  EXPECT_FALSE(v->requires_grad);
  EXPECT_TRUE(v->inputs.empty());
  return v->value;
}

void expect_socs_intensity_matches_chain(const SocsCase& c) {
  Rng rng(static_cast<std::uint64_t>(53 + c.batch * 11 + c.r * 5 + c.n * 3 +
                                     c.out_px));
  const Tensor kt = random_tensor({c.r, c.n, c.n, 2}, rng, 0.5f);
  const Tensor spectra = random_tensor({c.batch, c.n, c.n, 2}, rng, 0.3f);
  const Tensor targets =
      random_tensor({c.batch, c.out_px, c.out_px}, rng, 0.2f, 0.5f);
  Tensor upstream = random_tensor({c.batch, c.out_px, c.out_px}, rng);
  for (std::int64_t i = 0; i < upstream.numel(); i += 5) {
    upstream[i] = (i / 5) % 2 == 0 ? -0.0f : 0.0f;
  }

  test::ArmGuard guard;
  std::vector<simd::Arm> arms = test::vector_arms();
  arms.insert(arms.begin(), simd::Arm::kScalar);
  for (const bool spectrum_side : {false, true}) {
    for (const Tensor* up : {static_cast<const Tensor*>(nullptr),
                             static_cast<const Tensor*>(&upstream)}) {
      SocsBits ref;
      {
        simd::force_arm(simd::Arm::kScalar);
        set_parallel_workers(1);
        ref = run_socs(c, kt, spectra, targets, up, spectrum_side,
                       /*fused=*/false);
      }
      for (const simd::Arm arm : arms) {
        simd::force_arm(arm);
        for (const int workers : {1, 4}) {
          set_parallel_workers(workers);
          const SocsBits got = run_socs(c, kt, spectra, targets, up,
                                        spectrum_side, /*fused=*/true);
          const std::string where =
              std::string(simd::arm_name(arm)) + " w" +
              std::to_string(workers) + " B" + std::to_string(c.batch) +
              " r" + std::to_string(c.r) + " n" + std::to_string(c.n) +
              " S" + std::to_string(c.out_px) +
              (spectrum_side ? " spectrum" : " kernels") +
              (up != nullptr ? " upstream" : " mse");
          EXPECT_TRUE(test::tensors_bit_identical(got.intensity,
                                                  ref.intensity))
              << "intensity " << where;
          EXPECT_TRUE(test::tensors_bit_identical(got.loss, ref.loss))
              << "loss " << where;
          EXPECT_TRUE(test::tensors_bit_identical(got.grad, ref.grad))
              << "grad " << where;
          EXPECT_TRUE(test::tensors_bit_identical(
              socs_intensity_no_grad(c, kt, spectra, spectrum_side),
              ref.intensity))
              << "no-grad intensity " << where;
        }
      }
    }
  }
  set_parallel_workers(0);
}

TEST(SocsIntensity, BitIdenticalToChainPow2) {
  expect_socs_intensity_matches_chain({3, 2, 5, 16});
  expect_socs_intensity_matches_chain({1, 3, 3, 8});
}

TEST(SocsIntensity, BitIdenticalToChainBluestein) {
  // out_px 12 and 15 are non-pow2: the float Bluestein plans, their
  // workspace scratch and the plane buffer at a Bluestein size.
  expect_socs_intensity_matches_chain({3, 2, 5, 12});
  expect_socs_intensity_matches_chain({2, 3, 5, 15});
}

TEST(SocsIntensity, BitIdenticalAcrossSeveralColumnBlocks) {
  // out_px 64 splits the column pass into several L1 blocks and the n = 29
  // band wraps across row 0; out_px 45 (Bluestein) ends in a partial block.
  expect_socs_intensity_matches_chain({2, 2, 29, 64});
  expect_socs_intensity_matches_chain({2, 2, 9, 45});
}

TEST(SocsIntensity, MoreSamplesThanWorkers) {
  // Six samples over four workers: threads run several samples in turn
  // and reuse their plane buffer.
  expect_socs_intensity_matches_chain({6, 5, 5, 16});
}

// ---- The nn FFT ops against the column-strip oracles, bit for bit -----
// fft2c_crop_batch's forward (crop_forward) and vjp (band_inverse, real
// part added row-major), and the SOCS fields and no-gradient intensity
// (band_inverse written in place), must match the pre-row-major
// arithmetic of support/pruned_ref.hpp by memcmp on every SIMD arm at 1
// and 4 workers, on radix-2 and Bluestein grids, with an upstream holding
// -0.0f entries.

using cfl = std::complex<float>;

struct CropBits {
  Tensor crop, grad;
};

CropBits run_crop(const Tensor& masks, int crop, const Tensor& upstream) {
  const Var m = make_leaf(masks, true);
  const Var c = fft2c_crop_batch(m, crop);
  backward(seed_gradient(c, upstream));
  return {c->value, m->grad};
}

CropBits crop_strip_oracle(const Tensor& masks, int crop,
                           const Tensor& upstream) {
  const int batch = masks.dim(0);
  const int s = masks.dim(1);
  const std::int64_t plane = static_cast<std::int64_t>(s) * s;
  const float inv_n2 = 1.0f / static_cast<float>(plane);
  const FftPlan<float>& plan = fft_plan_f(s);
  Fft2WorkspaceF ws;
  CropBits out{Tensor({batch, crop, crop, 2}), Tensor({batch, s, s})};
  std::vector<cfl> buf(static_cast<std::size_t>(plane));
  for (int b = 0; b < batch; ++b) {
    for (std::int64_t p = 0; p < plane; ++p) {
      buf[p] = cfl(masks[b * plane + p], 0.0f);
    }
    float* dst = out.crop.data() + b * crop * crop * 2;
    test::crop_forward_strip(plan, buf.data(), crop, crop, ws,
                             [&](int a, int c, cfl v) {
                               dst[(a * crop + c) * 2] = v.real() * inv_n2;
                               dst[(a * crop + c) * 2 + 1] =
                                   v.imag() * inv_n2;
                             });
    const float* g = upstream.data() + b * crop * crop * 2;
    float* acc = out.grad.data() + b * plane;
    test::band_inverse_strip(
        plan, crop, crop, ws,
        [&](int a, cfl* row) {
          for (int c = 0; c < crop; ++c) {
            const int si = (a * crop + c) * 2;
            row[c] = cfl(g[si] * inv_n2, g[si + 1] * inv_n2);
          }
        },
        [&](int c0, int cb, const cfl* cols, float scale) {
          for (int rr = 0; rr < s; ++rr) {
            float* d = acc + rr * s + c0;
            for (int q = 0; q < cb; ++q)
              d[q] += cols[q * s + rr].real() * scale;
          }
        });
  }
  return out;
}

// The SOCS fields [B, r, S, S, 2] of kernels [r, n, n, 2] and spectra
// [B, n, n, 2], each plane the strip band_inverse written like the old
// field op.
Tensor socs_fields_strip_oracle(const Tensor& kernels, const Tensor& spectra,
                                int out_px) {
  const int r = kernels.dim(0);
  const int n = kernels.dim(1);
  const int batch = spectra.dim(0);
  const std::int64_t plane = static_cast<std::int64_t>(out_px) * out_px;
  const FftPlan<float>& plan = fft_plan_f(out_px);
  Fft2WorkspaceF ws;
  Tensor fields({batch, r, out_px, out_px, 2});
  for (int b = 0; b < batch; ++b) {
    for (int i = 0; i < r; ++i) {
      const cfl* k = reinterpret_cast<const cfl*>(kernels.data()) + i * n * n;
      const cfl* c = reinterpret_cast<const cfl*>(spectra.data()) + b * n * n;
      test::band_inverse_strip_plane(
          plan, n, n, ws,
          [&](int a, cfl* row) { simd::cmul(row, k + a * n, c + a * n, n); },
          reinterpret_cast<cfl*>(fields.data()) + (b * r + i) * plane);
    }
  }
  return fields;
}

Tensor intensity_of(const Tensor& fields) {
  const int batch = fields.dim(0), r = fields.dim(1), s = fields.dim(2);
  const std::int64_t plane = static_cast<std::int64_t>(s) * s;
  Tensor out({batch, s, s});
  for (int b = 0; b < batch; ++b) {
    for (int i = 0; i < r; ++i) {
      simd::abs2_accum(out.data() + b * plane,
                       fields.data() + (b * r + i) * plane * 2, plane);
    }
  }
  return out;
}

void expect_pruned_ops_match_strip_oracle(int batch, int s, int crop, int r) {
  Rng rng(static_cast<std::uint64_t>(71 + s * 13 + crop * 5 + r));
  const Tensor masks = random_tensor({batch, s, s}, rng, 0.5f, 0.5f);
  Tensor upstream = random_tensor({batch, crop, crop, 2}, rng);
  for (std::int64_t i = 0; i < upstream.numel(); i += 3) upstream[i] = -0.0f;
  const Tensor kernels = random_tensor({r, crop, crop, 2}, rng, 0.5f);
  Tensor spectra = random_tensor({batch, crop, crop, 2}, rng, 0.3f);
  for (std::int64_t i = 0; i < spectra.numel(); i += 4) spectra[i] = -0.0f;

  test::ArmGuard guard;
  CropBits ref_crop;
  Tensor ref_fields, ref_intensity;
  {
    simd::force_arm(simd::Arm::kScalar);
    ref_crop = crop_strip_oracle(masks, crop, upstream);
    ref_fields = socs_fields_strip_oracle(kernels, spectra, s);
    ref_intensity = intensity_of(ref_fields);
  }
  std::vector<simd::Arm> arms = test::vector_arms();
  arms.insert(arms.begin(), simd::Arm::kScalar);
  for (const simd::Arm arm : arms) {
    simd::force_arm(arm);
    for (const int workers : {1, 4}) {
      set_parallel_workers(workers);
      const std::string where = std::string(simd::arm_name(arm)) + " w" +
                                std::to_string(workers) + " S" +
                                std::to_string(s) + " crop" +
                                std::to_string(crop);
      const CropBits got = run_crop(masks, crop, upstream);
      EXPECT_TRUE(test::tensors_bit_identical(got.crop, ref_crop.crop))
          << "crop " << where;
      EXPECT_TRUE(test::tensors_bit_identical(got.grad, ref_crop.grad))
          << "crop vjp " << where;
      const Var f = socs_field_batch(make_leaf(kernels), spectra, s);
      EXPECT_TRUE(test::tensors_bit_identical(f->value, ref_fields))
          << "fields " << where;
      const Var in = socs_intensity_batch(make_leaf(kernels), spectra, s);
      EXPECT_TRUE(test::tensors_bit_identical(in->value, ref_intensity))
          << "no-grad intensity " << where;
    }
  }
  set_parallel_workers(0);
}

TEST(PrunedOps, BitIdenticalToStripOracleRadix2) {
  expect_pruned_ops_match_strip_oracle(3, 16, 9, 2);
  expect_pruned_ops_match_strip_oracle(2, 32, 15, 3);
  expect_pruned_ops_match_strip_oracle(2, 64, 29, 2);
  expect_pruned_ops_match_strip_oracle(1, 128, 29, 2);
}

TEST(PrunedOps, BitIdenticalToStripOracleBluestein) {
  expect_pruned_ops_match_strip_oracle(3, 45, 13, 2);
  expect_pruned_ops_match_strip_oracle(2, 97, 29, 2);
  // The crop is the whole grid: every row is a band row.
  expect_pruned_ops_match_strip_oracle(2, 45, 45, 1);
}

TEST(GradCheck, SocsIntensityNodes) {
  Rng rng(59);
  const Tensor kernels = random_tensor({2, 3, 3, 2}, rng, 0.5f);
  const Tensor spectra = random_tensor({2, 3, 3, 2}, rng, 0.3f);
  const Tensor targets = random_tensor({2, 8, 8}, rng, 0.2f, 0.5f);
  expect_gradcheck({kernels}, [spectra, targets](const std::vector<Var>& v) {
    return mse_loss_batch_ordered(socs_intensity_batch(v[0], spectra, 8),
                                  targets);
  });
  expect_gradcheck({spectra}, [kernels, targets](const std::vector<Var>& v) {
    return mse_loss_batch_ordered(
        socs_intensity_from_spectrum_batch(v[0], kernels, 8), targets);
  });
}

TEST(SocsIntensity, RejectsBadShapes) {
  const Tensor kt({2, 3, 3, 2});
  EXPECT_THROW(socs_intensity_batch(make_leaf(kt, true), Tensor({1, 5, 5, 2}),
                                    8),
               check_error);
  EXPECT_THROW(socs_intensity_batch(make_leaf(kt, true), Tensor({1, 3, 3, 2}),
                                    2),
               check_error);
  EXPECT_THROW(socs_intensity_from_spectrum_batch(
                   make_leaf(Tensor({0, 3, 3, 2}), true), kt, 8),
               check_error);
  EXPECT_THROW(socs_intensity_from_spectrum_batch(
                   make_leaf(Tensor({1, 3, 3, 2}), true), Tensor({2, 3, 3}),
                   8),
               check_error);
}
}  // namespace
}  // namespace nitho::nn
