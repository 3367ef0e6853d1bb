// Tests for the Nitho core: positional encodings, CMLP, model, the
// Algorithm-1 trainer and the fast-lithography engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "fft/spectral.hpp"
#include "io/tensor_io.hpp"
#include "layout/raster.hpp"
#include "litho/golden.hpp"
#include "metrics/metrics.hpp"
#include "nitho/cmlp.hpp"
#include "nitho/encoding.hpp"
#include "nitho/fast_litho.hpp"
#include "nitho/model.hpp"
#include "nitho/trainer.hpp"
#include "nn/ops.hpp"
#include "nn/ops_fft.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "support/cmlp_ref.hpp"
#include "support/per_mask_ref.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

LithoConfig small_config() {
  LithoConfig cfg;
  cfg.tile_nm = 512;
  cfg.raster_px = 512;
  cfg.analysis_px = 64;
  cfg.sim_px = 32;
  cfg.spectrum_crop = 31;
  cfg.max_rank = 200;
  return cfg;
}

const GoldenEngine& engine() {
  static const GoldenEngine e{small_config()};
  return e;
}

NithoConfig small_model_config() {
  NithoConfig cfg;
  cfg.rank = 12;
  cfg.encoding.features = 64;
  cfg.hidden = 32;
  cfg.blocks = 2;
  return cfg;
}

TEST(Encoding, ShapesAndDeterminism) {
  EncodingConfig cfg;
  cfg.features = 32;
  const nn::Tensor a = encode_coordinates(5, 7, cfg);
  ASSERT_EQ(a.ndim(), 3);
  EXPECT_EQ(a.dim(0), 35);
  EXPECT_EQ(a.dim(1), 32);
  EXPECT_EQ(a.dim(2), 2);
  const nn::Tensor b = encode_coordinates(5, 7, cfg);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Encoding, RffIsOnePlusJComplexified) {
  EncodingConfig cfg;
  cfg.kind = EncodingKind::GaussianRff;
  cfg.features = 16;
  const nn::Tensor t = encode_coordinates(4, 4, cfg);
  // (1+j) complexification: re == im for every feature (Eq. 15).
  for (std::int64_t i = 0; i < t.numel(); i += 2) EXPECT_EQ(t[i], t[i + 1]);
  // cos features bounded.
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::abs(t[i]), 1.0f);
  }
}

TEST(Encoding, NerfUsesPowersOfTwo) {
  EncodingConfig cfg;
  cfg.kind = EncodingKind::NerfPe;
  cfg.features = 16;  // L = 4 levels
  const nn::Tensor t = encode_coordinates(1, 3, cfg);
  // Point (x=1, y=0.5): first sin feature is sin(pi * x) = ~0.
  // Coordinates row-major: index 2 is (r=0,c=2) -> x=1.
  const int f = 16;
  EXPECT_NEAR(t[(2 * f + 0) * 2], std::sin(kPi * 1.0), 1e-6);
  EXPECT_NEAR(t[(2 * f + 1) * 2], std::cos(kPi * 1.0), 1e-6);
}

TEST(Encoding, DistinctKindsDiffer) {
  EncodingConfig a, b;
  a.features = b.features = 32;
  a.kind = EncodingKind::GaussianRff;
  b.kind = EncodingKind::None;
  const nn::Tensor ta = encode_coordinates(4, 4, a);
  const nn::Tensor tb = encode_coordinates(4, 4, b);
  double diff = 0.0;
  for (std::int64_t i = 0; i < ta.numel(); ++i) diff += std::abs(ta[i] - tb[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(Encoding, Names) {
  EXPECT_EQ(encoding_name(EncodingKind::None), "None");
  EXPECT_EQ(encoding_name(EncodingKind::NerfPe), "NeRF-PE");
  EXPECT_EQ(encoding_name(EncodingKind::GaussianRff), "Gaussian-RFF");
}

TEST(Encoding, RejectsBadFeatureCounts) {
  EncodingConfig cfg;
  cfg.features = 7;
  EXPECT_THROW(encode_coordinates(3, 3, cfg), check_error);
  cfg.kind = EncodingKind::NerfPe;
  cfg.features = 10;  // not divisible by 4
  EXPECT_THROW(encode_coordinates(3, 3, cfg), check_error);
}

TEST(Cmlp, OutputShapeAndParameterCount) {
  CmlpConfig cfg;
  cfg.in_features = 8;
  cfg.hidden = 6;
  cfg.blocks = 2;
  cfg.out = 3;
  Cmlp mlp(cfg);
  // Complex params: (8*6+6) + 2*(6*6+6) + (6*3+3) = 54 + 84 + 21 = 159.
  EXPECT_EQ(mlp.parameter_count(), 2 * 159);
  nn::Var in = nn::make_leaf(nn::Tensor({5, 8, 2}, 0.1f), false);
  nn::Var out = mlp.forward(in);
  ASSERT_EQ(out->value.ndim(), 3);
  EXPECT_EQ(out->value.dim(0), 5);
  EXPECT_EQ(out->value.dim(1), 3);
  EXPECT_EQ(out->value.dim(2), 2);
}

// Double-precision replica of Cmlp::forward followed by L = sum |out|^2,
// operating on flattened copies of the network parameters in parameters()
// order (all weights, then all biases).  Used to finite-difference the full
// complex MLP against float backprop at 1e-5 — re and im slots alike.
double cmlp_ref_loss(const CmlpConfig& cfg,
                     const std::vector<std::vector<double>>& params,
                     const std::vector<double>& input, int P,
                     double* min_preact = nullptr) {
  const int layers = cfg.blocks + 2;
  std::vector<int> fan_in{cfg.in_features}, fan_out{cfg.hidden};
  for (int b = 0; b < cfg.blocks; ++b) {
    fan_in.push_back(cfg.hidden);
    fan_out.push_back(cfg.hidden);
  }
  fan_in.push_back(cfg.hidden);
  fan_out.push_back(cfg.out);

  double min_abs = std::numeric_limits<double>::infinity();
  std::vector<double> h = input;  // [P, fan_in[0], 2]
  for (int l = 0; l < layers; ++l) {
    const std::vector<double>& w = params[static_cast<std::size_t>(l)];
    const std::vector<double>& b =
        params[static_cast<std::size_t>(layers + l)];
    const int in = fan_in[l], out = fan_out[l];
    std::vector<double> next(static_cast<std::size_t>(P) * out * 2);
    for (int p = 0; p < P; ++p) {
      for (int o = 0; o < out; ++o) {
        double re = b[2 * o], im = b[2 * o + 1];
        for (int i = 0; i < in; ++i) {
          const double xr = h[(p * in + i) * 2], xi = h[(p * in + i) * 2 + 1];
          const double wr = w[(i * out + o) * 2], wi = w[(i * out + o) * 2 + 1];
          re += xr * wr - xi * wi;
          im += xr * wi + xi * wr;
        }
        const bool activated = l >= 1 && l <= cfg.blocks;  // CReLU blocks
        if (activated) {
          min_abs = std::min({min_abs, std::abs(re), std::abs(im)});
          re = re > 0.0 ? re : 0.0;
          im = im > 0.0 ? im : 0.0;
        }
        next[(p * out + o) * 2] = re;
        next[(p * out + o) * 2 + 1] = im;
      }
    }
    h = std::move(next);
  }
  if (min_preact) *min_preact = min_abs;
  double loss = 0.0;
  for (double v : h) loss += v * v;
  return loss;
}

// The CMLP is one clinear node per layer and reproduces the oracle chain
// (tests/support/cmlp_ref.hpp) bit for bit at Table-I size: P = 841
// coordinates (kdim 29) of the RFF encoding, F = 96, hidden 48, 2 blocks,
// rank 24.  The model path feeds the encoding's real plane; the oracle gets
// the (1+j)-lifted complex tensor.  A general complex input that takes a
// gradient is pinned too.
TEST(Cmlp, ForwardBackwardBitIdenticalToOracleAtTableOneSize) {
  CmlpConfig cfg;
  cfg.in_features = 96;
  cfg.hidden = 48;
  cfg.blocks = 2;
  cfg.out = 24;
  EncodingConfig ec;
  ec.features = cfg.in_features;
  const nn::Tensor lifted = encode_coordinates(29, 29, ec);
  const int p = 29 * 29;
  nn::Tensor plane({p, cfg.in_features});
  for (std::int64_t i = 0; i < plane.numel(); ++i) plane[i] = lifted[2 * i];
  Rng rng = test::make_rng(12);
  nn::Tensor complex_in({p, cfg.in_features, 2});
  for (std::int64_t i = 0; i < complex_in.numel(); ++i) {
    complex_in[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }

  struct Input {
    nn::Tensor fused, oracle;
    bool grad;
  };
  for (const Input& in : {Input{plane, lifted, false},
                          Input{complex_in, complex_in, true}}) {
    const Cmlp fused(cfg), oracle(cfg);
    const nn::Var xf = nn::make_leaf(in.fused, in.grad);
    const nn::Var xo = nn::make_leaf(in.oracle, in.grad);
    const nn::Var yf = fused.forward(xf);
    const nn::Var yo = test::cmlp_forward(oracle, xo);
    nn::backward(nn::mean(nn::square(yf)));
    nn::backward(nn::mean(nn::square(yo)));
    EXPECT_TRUE(test::tensors_bit_identical(yf->value, yo->value))
        << "output, grad " << in.grad;
    const std::vector<nn::Var> pf = fused.parameters();
    const std::vector<nn::Var> po = oracle.parameters();
    ASSERT_EQ(pf.size(), po.size());
    for (std::size_t i = 0; i < pf.size(); ++i) {
      EXPECT_TRUE(test::tensors_bit_identical(pf[i]->grad, po[i]->grad))
          << "parameter " << i << ", grad " << in.grad;
    }
    if (in.grad) {
      EXPECT_TRUE(test::tensors_bit_identical(xf->grad, xo->grad))
          << "input grad";
    }

    // One node per layer: clinear all the way down to the input leaf.
    int layers = 0;
    nn::Var node = yf;
    while (node != xf) {
      ASSERT_STREQ(node->op, "clinear");
      ASSERT_EQ(node->inputs.size(), 3u);
      node = node->inputs[0];
      ++layers;
    }
    EXPECT_EQ(layers, cfg.blocks + 2);
  }
}

TEST(Cmlp, FiniteDifferenceGradientsMatchBackprop) {
  CmlpConfig cfg;
  cfg.in_features = 2;
  cfg.hidden = 3;
  cfg.blocks = 1;
  cfg.out = 2;
  cfg.seed = 77;
  const Cmlp mlp(cfg);
  const int P = 4;

  Rng rng = test::make_rng(9);
  nn::Tensor in_t({P, cfg.in_features, 2});
  for (std::int64_t i = 0; i < in_t.numel(); ++i) {
    in_t[i] = static_cast<float>(rng.normal());
  }
  nn::Var input = nn::make_leaf(in_t, true);

  nn::Var loss = nn::sum(nn::square(mlp.forward(input)));
  nn::backward(loss);

  const std::vector<nn::Var> params = mlp.parameters();
  std::vector<std::vector<double>> pv(params.size());
  for (std::size_t li = 0; li < params.size(); ++li) {
    const nn::Tensor& t = params[li]->value;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      pv[li].push_back(static_cast<double>(t[i]));
    }
  }
  std::vector<double> iv;
  for (std::int64_t i = 0; i < in_t.numel(); ++i) {
    iv.push_back(static_cast<double>(in_t[i]));
  }

  // Finite differences are only meaningful away from the CReLU kink.
  double min_preact = 0.0;
  cmlp_ref_loss(cfg, pv, iv, P, &min_preact);
  ASSERT_GT(min_preact, 1e-3);

  const double eps = 1e-6;
  const auto check_leaf = [&](const nn::Tensor& grad, std::size_t n,
                              const std::function<double(std::size_t, double)>&
                                  eval_perturbed,
                              const char* what) {
    ASSERT_EQ(grad.numel(), static_cast<std::int64_t>(n)) << what;
    for (std::size_t i = 0; i < n; ++i) {
      const double fd =
          (eval_perturbed(i, eps) - eval_perturbed(i, -eps)) / (2.0 * eps);
      const double analytic = static_cast<double>(grad[static_cast<std::int64_t>(i)]);
      const char* slot = (i % 2 == 0) ? "re" : "im";
      EXPECT_NEAR(analytic, fd,
                  1e-5 * (1.0 + std::abs(analytic) + std::abs(fd)))
          << what << " elem " << i << " (" << slot << " slot)";
    }
  };

  for (std::size_t li = 0; li < params.size(); ++li) {
    check_leaf(
        params[li]->grad, pv[li].size(),
        [&](std::size_t i, double delta) {
          std::vector<std::vector<double>> p = pv;
          p[li][i] += delta;
          return cmlp_ref_loss(cfg, p, iv, P);
        },
        li < params.size() / 2 ? "weight" : "bias");
  }
  check_leaf(
      input->grad, iv.size(),
      [&](std::size_t i, double delta) {
        std::vector<double> x = iv;
        x[i] += delta;
        return cmlp_ref_loss(cfg, pv, x, P);
      },
      "input");
}

TEST(Cmlp, LearnsComplexRegression) {
  CmlpConfig cfg;
  cfg.in_features = 4;
  cfg.hidden = 16;
  cfg.blocks = 1;
  cfg.out = 2;
  Cmlp mlp(cfg);
  Rng rng(3);
  nn::Tensor input({12, 4, 2});
  input.randn(rng, 1.0f);
  nn::Tensor target({12, 2, 2});
  target.randn(rng, 1.0f);
  nn::Adam opt(mlp.parameters(), 1e-2f);
  double first = 0.0, last = 0.0;
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    nn::Var loss = nn::mse_loss(mlp.forward(nn::make_leaf(input, false)), target);
    nn::backward(loss);
    opt.step();
    if (i == 0) first = loss->value[0];
    last = loss->value[0];
  }
  EXPECT_LT(last, 0.1 * first);
}

TEST(Model, DerivesKernelDimFromPhysics) {
  NithoModel m(small_model_config(), 512, 193.0, 1.35);
  EXPECT_EQ(m.kernel_dim(), 15);
  EXPECT_EQ(m.rank(), 12);
  const nn::Var k = m.predict_kernels();
  ASSERT_EQ(k->value.ndim(), 4);
  EXPECT_EQ(k->value.dim(0), 12);
  EXPECT_EQ(k->value.dim(1), 15);
  EXPECT_EQ(k->value.dim(2), 15);
  EXPECT_EQ(k->value.dim(3), 2);
}

TEST(Model, ExplicitKernelDimOverrides) {
  NithoConfig cfg = small_model_config();
  cfg.kernel_dim = 9;
  NithoModel m(cfg, 512, 193.0, 1.35);
  EXPECT_EQ(m.kernel_dim(), 9);
}

TEST(Model, ExportMatchesPrediction) {
  NithoModel m(small_model_config(), 512, 193.0, 1.35);
  const nn::Var k = m.predict_kernels();
  const std::vector<Grid<cd>> exported = m.export_kernels();
  ASSERT_EQ(exported.size(), 12u);
  const std::int64_t plane = 15 * 15;
  for (int i = 0; i < 3; ++i) {
    for (std::int64_t p = 0; p < plane; ++p) {
      EXPECT_FLOAT_EQ(static_cast<float>(exported[i][p].real()),
                      k->value[(i * plane + p) * 2]);
      EXPECT_FLOAT_EQ(static_cast<float>(exported[i][p].imag()),
                      k->value[(i * plane + p) * 2 + 1]);
    }
  }
}

TEST(Model, SaveLoadRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "nitho_model_test";
  std::filesystem::create_directories(dir);
  NithoModel a(small_model_config(), 512, 193.0, 1.35);
  a.save((dir / "m.bin").string());
  NithoConfig cfg = small_model_config();
  cfg.seed = 777;  // different init
  NithoModel b(cfg, 512, 193.0, 1.35);
  b.load((dir / "m.bin").string());
  const auto ka = a.export_kernels(), kb = b.export_kernels();
  for (std::size_t i = 0; i < ka.size(); ++i) EXPECT_EQ(ka[i], kb[i]);
  std::filesystem::remove_all(dir);
}

class TrainedNitho : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(engine().make_dataset(DatasetKind::B2v, 10, 1234));
    model_ = new NithoModel(small_model_config(), 512, 193.0, 1.35);
    std::vector<const Sample*> train;
    for (int i = 0; i < 8; ++i) train.push_back(&dataset_->samples[i]);
    NithoTrainConfig cfg;
    cfg.epochs = 30;
    cfg.batch = 4;
    cfg.train_px = 32;
    stats_ = train_nitho(*model_, train, cfg);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static NithoModel* model_;
  static TrainStats stats_;
};

Dataset* TrainedNitho::dataset_ = nullptr;
NithoModel* TrainedNitho::model_ = nullptr;
TrainStats TrainedNitho::stats_;

TEST_F(TrainedNitho, LossDecreasesByOrdersOfMagnitude) {
  ASSERT_FALSE(stats_.epoch_losses.empty());
  EXPECT_LT(stats_.final_loss, 0.05 * stats_.epoch_losses.front());
  EXPECT_EQ(stats_.steps, 30 * 2);
}

TEST_F(TrainedNitho, GeneralizesToHeldOutMasks) {
  // Samples 8..9 were never trained on.
  for (int i = 8; i < 10; ++i) {
    const Sample& s = dataset_->samples[static_cast<std::size_t>(i)];
    const Grid<double> pred = predict_aerial(*model_, s, 64);
    EXPECT_GT(psnr(s.aerial, pred), 22.0) << "held-out sample " << i;
  }
}

TEST_F(TrainedNitho, BeatsUntrainedModel) {
  NithoModel fresh(small_model_config(), 512, 193.0, 1.35);
  const Sample& s = dataset_->samples[9];
  EXPECT_GT(psnr(s.aerial, predict_aerial(*model_, s, 64)),
            psnr(s.aerial, predict_aerial(fresh, s, 64)) + 5.0);
}

TEST_F(TrainedNitho, FastLithoMatchesModelPrediction) {
  const FastLitho fast = FastLitho::from_model(*model_);
  EXPECT_EQ(fast.kernel_dim(), 15);
  EXPECT_EQ(fast.rank(), 12);
  const Sample& s = dataset_->samples[5];
  const Grid<cd> crop = center_crop(s.spectrum, 15, 15);
  const Grid<double> a = fast.aerial_from_spectrum(crop, 64);
  const Grid<double> b = predict_aerial(*model_, s, 64);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
}

TEST_F(TrainedNitho, FastLithoFullPipelineFromMask) {
  Rng rng(9);
  const Layout l = make_layout(DatasetKind::B2v, 512, rng);
  const Grid<double> mask = rasterize(l, 1);
  const Sample s = engine().make_sample(mask);
  const FastLitho fast = FastLitho::from_model(*model_);
  const Grid<double> aerial = fast.aerial_from_mask(mask, 64);
  EXPECT_GT(psnr(s.aerial, aerial), 22.0);
  const Grid<double> resist = fast.resist_from_mask(mask, 64);
  for (std::size_t i = 0; i < resist.size(); ++i) {
    EXPECT_TRUE(resist[i] == 0.0 || resist[i] == 1.0);
  }
}

TEST_F(TrainedNitho, KernelPersistenceRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "nitho_fast_test";
  std::filesystem::create_directories(dir);
  const FastLitho fast = FastLitho::from_model(*model_);
  fast.save((dir / "kernels.bin").string());
  const FastLitho back = FastLitho::load((dir / "kernels.bin").string());
  EXPECT_EQ(back.rank(), fast.rank());
  const Sample& s = dataset_->samples[0];
  const Grid<cd> crop = center_crop(s.spectrum, 15, 15);
  EXPECT_EQ(back.aerial_from_spectrum(crop, 32),
            fast.aerial_from_spectrum(crop, 32));
  std::filesystem::remove_all(dir);
}

TEST(FastLitho, RejectsNonFiniteKernelsFromEveryEntry) {
  // Fail closed: a NaN/Inf kernel would be served as NaN aerials.  The
  // constructor, a corrupt kernel file and a diverged model all throw.
  const auto dir =
      std::filesystem::temp_directory_path() / "nitho_nonfinite_kernels";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "kernels.bin").string();
  Rng rng = test::make_rng(61);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<Grid<cd>> kernels = test::random_kernels(4, 7, rng);
    kernels[2](3, 1) = cd(0.25, bad);
    EXPECT_THROW((void)FastLitho{std::vector<Grid<cd>>(kernels)}, check_error)
        << bad;
    save_kernels(path, kernels);
    EXPECT_THROW((void)FastLitho::load(path), check_error) << bad;

    NithoModel model(small_model_config(), 512, 193.0, 1.35);
    const nn::Var out_bias = model.parameters().back();
    for (std::int64_t i = 0; i < out_bias->value.numel(); ++i) {
      out_bias->value[i] = static_cast<float>(bad);
    }
    EXPECT_THROW((void)FastLitho::from_model(model), check_error) << bad;
  }
  // A finite set still loads.
  save_kernels(path, test::random_kernels(4, 7, rng));
  EXPECT_EQ(FastLitho::load(path).rank(), 4);
  std::filesystem::remove_all(dir);
}

TEST(Trainer, DeterministicAcrossRuns) {
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 4, 55);
  auto run = [&]() {
    NithoConfig mc = small_model_config();
    NithoModel m(mc, 512, 193.0, 1.35);
    NithoTrainConfig cfg;
    cfg.epochs = 4;
    cfg.batch = 2;
    cfg.train_px = 32;
    return train_nitho(m, sample_ptrs(ds), cfg).final_loss;
  };
  EXPECT_EQ(run(), run());
}

TEST(Trainer, SeedDeterminesFullLossTrajectory) {
  const Dataset ds = engine().make_dataset(DatasetKind::B2v, 5, 31);
  auto run = [&]() {
    NithoModel m(small_model_config(), 512, 193.0, 1.35);
    NithoTrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch = 2;
    cfg.train_px = 32;
    cfg.seed = 4242;
    return train_nitho(m, sample_ptrs(ds), cfg).epoch_losses;
  };
  const std::vector<double> a = run();
  const std::vector<double> b = run();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);
}

// The verbatim reimplementation of the pre-batching per-mask training loop
// (one socs_field/abs2_sum0/mse_loss chain per mask per step, reduced
// through add()) is the oracle test::legacy_train_nitho
// (support/per_mask_ref.hpp).  The tensor-batched trainer must reproduce
// its loss trajectory and trained weights bit for bit at a fixed seed —
// the repo-wide invariant.
void expect_bit_identical_training(const Dataset& ds,
                                   const NithoTrainConfig& cfg) {
  NithoModel legacy(small_model_config(), 512, 193.0, 1.35);
  NithoModel batched(small_model_config(), 512, 193.0, 1.35);
  const TrainingSet set = prepare_training_set(
      sample_ptrs(ds), legacy.kernel_dim(), cfg.train_px);
  const TrainStats sl = test::legacy_train_nitho(legacy, set, cfg);
  const TrainStats sb = train_nitho(batched, set, cfg);
  ASSERT_EQ(sl.epoch_losses.size(), sb.epoch_losses.size());
  for (std::size_t e = 0; e < sl.epoch_losses.size(); ++e) {
    EXPECT_EQ(sl.epoch_losses[e], sb.epoch_losses[e]) << "epoch " << e;
  }
  EXPECT_EQ(sl.steps, sb.steps);
  // Golden predict_kernels-after-training check: identical weights after
  // identical updates, so the predicted kernel stacks match bit for bit.
  const auto kl = legacy.export_kernels();
  const auto kb = batched.export_kernels();
  ASSERT_EQ(kl.size(), kb.size());
  for (std::size_t i = 0; i < kl.size(); ++i) EXPECT_EQ(kl[i], kb[i]);
}

TEST(Trainer, BatchedMatchesLegacyPerMaskLoopBitwise) {
  // 6 samples with batch 4 exercises a ragged tail batch every epoch.
  const Dataset ds = engine().make_dataset(DatasetKind::B2v, 6, 77);
  NithoTrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch = 4;
  cfg.train_px = 32;
  cfg.seed = 5;
  expect_bit_identical_training(ds, cfg);
}

TEST(Trainer, BatchedMatchesLegacyOnBluesteinGrid) {
  // train_px 33 routes the differentiable FFTs through the Bluestein path
  // (and its workspace scratch) instead of radix-2.
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 3, 13);
  NithoTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 2;
  cfg.train_px = 33;
  cfg.seed = 9;
  expect_bit_identical_training(ds, cfg);
}

// The whole step — the CMLP's row-split GEMMs and their scratch, the
// batched SOCS ops, the loss and Adam — is the same at every worker count.
// With the small model the entry layer (225 x 64 x 32 MACs per GEMM) is
// above kGemmParallelMacs, so 4 workers split its rows.
TEST(Trainer, BitIdenticalAcrossWorkerCounts) {
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 4, 31);
  NithoTrainConfig cfg;
  cfg.epochs = 3;  // one step per epoch: epoch losses are step losses
  cfg.batch = 4;
  cfg.train_px = 32;
  cfg.seed = 3;
  const auto run = [&](int workers) {
    set_parallel_workers(workers);
    NithoModel m(small_model_config(), 512, 193.0, 1.35);
    const TrainStats st = train_nitho(m, sample_ptrs(ds), cfg);
    return std::make_pair(st.epoch_losses, nn::dump_parameters(m.parameters()));
  };
  const auto [losses1, weights1] = run(1);
  const auto [losses4, weights4] = run(4);
  set_parallel_workers(0);
  ASSERT_EQ(losses1.size(), 3u);
  ASSERT_EQ(losses4.size(), losses1.size());
  EXPECT_EQ(std::memcmp(losses1.data(), losses4.data(),
                        losses1.size() * sizeof(double)),
            0);
  ASSERT_EQ(weights4.size(), weights1.size());
  EXPECT_EQ(std::memcmp(weights1.data(), weights4.data(),
                        weights1.size() * sizeof(float)),
            0);
}

// Per-op vjp timers: binding a registry leaves every bit of the run as it
// is, and each step's backward records every op of the step's graph into
// "train.vjp.<op>_us", one sample per node.
TEST(Trainer, VjpTimersRecordEveryOpWithoutChangingBits) {
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 4, 33);
  NithoTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 4;
  cfg.train_px = 32;
  NithoModel plain(small_model_config(), 512, 193.0, 1.35);
  NithoModel timed(small_model_config(), 512, 193.0, 1.35);
  const TrainingSet set =
      prepare_training_set(sample_ptrs(ds), plain.kernel_dim(), cfg.train_px);
  NithoTrainer plain_trainer(plain, set, cfg);
  NithoTrainer timed_trainer(timed, set, cfg);
  obs::MetricsRegistry registry;
  timed_trainer.set_observer(&registry);
  while (!plain_trainer.done()) plain_trainer.run_epoch();
  while (!timed_trainer.done()) timed_trainer.run_epoch();
  EXPECT_EQ(plain_trainer.epoch_losses(), timed_trainer.epoch_losses());
  const std::vector<float> wp = nn::dump_parameters(plain.parameters());
  const std::vector<float> wt = nn::dump_parameters(timed.parameters());
  ASSERT_EQ(wp.size(), wt.size());
  EXPECT_EQ(std::memcmp(wp.data(), wt.data(), wp.size() * sizeof(float)), 0);

  // The ops of one step's graph, counted per node that has a vjp.
  nn::Tensor spectra({4, set.kernel_dim, set.kernel_dim, 2});
  nn::Tensor targets({4, set.train_px, set.train_px});
  const nn::Var loss = nn::scale(
      nn::mse_loss_batch_ordered(
          nn::socs_intensity_batch(timed.predict_kernels(), spectra,
                                   set.train_px),
          targets),
      0.25f);
  std::map<std::string, std::uint64_t> per_step;
  std::vector<nn::Node*> stack{loss.get()};
  std::set<nn::Node*> seen{loss.get()};
  while (!stack.empty()) {
    nn::Node* n = stack.back();
    stack.pop_back();
    if (n->backward_fn) ++per_step[n->op];
    for (const nn::Var& in : n->inputs) {
      if (seen.insert(in.get()).second) stack.push_back(in.get());
    }
  }
  EXPECT_EQ(per_step["clinear"], 4u);  // entry, 2 blocks, closing layer

  const obs::MetricsSnapshot snap = registry.snapshot();
  std::map<std::string, std::uint64_t> recorded;
  const std::string prefix = "train.vjp.";
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.name.rfind(prefix, 0) != 0) continue;
    ASSERT_EQ(m.kind, obs::MetricKind::kHistogram) << m.name;
    recorded[m.name.substr(prefix.size())] = m.hist.count;
  }
  const auto steps = static_cast<std::uint64_t>(timed_trainer.stats().steps);
  ASSERT_EQ(steps, 2u);
  ASSERT_EQ(recorded.size(), per_step.size());
  for (const auto& [op, count] : per_step) {
    EXPECT_EQ(recorded[op + "_us"], count * steps) << op;
  }
}

TEST(Trainer, TinyEpochSmoke) {
  // CI smoke for the batched path: 2 epochs over 8 samples (the ci.sh
  // Debug/-Werror leg runs this via ctest).
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 8, 3);
  NithoModel m(small_model_config(), 512, 193.0, 1.35);
  NithoTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 4;
  cfg.train_px = 32;
  const TrainStats st = train_nitho(m, sample_ptrs(ds), cfg);
  ASSERT_EQ(st.epoch_losses.size(), 2u);
  EXPECT_EQ(st.steps, 4);
  for (double l : st.epoch_losses) EXPECT_TRUE(std::isfinite(l));
  EXPECT_LE(st.epoch_losses[1], st.epoch_losses[0]);
  EXPECT_GE(st.forward_seconds, 0.0);
  EXPECT_GE(st.backward_seconds, 0.0);
  EXPECT_GE(st.step_seconds, 0.0);
}

TEST(Trainer, PrepareTrainingSetShapesAndReuse) {
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 3, 21);
  const TrainingSet set = prepare_training_set(sample_ptrs(ds), 15, 32);
  EXPECT_EQ(set.size(), 3);
  EXPECT_EQ(set.kernel_dim, 15);
  EXPECT_EQ(set.train_px, 32);
  ASSERT_EQ(set.spectra.size(), 3u);
  EXPECT_EQ(set.spectra[0].shape(), (std::vector<int>{15, 15, 2}));
  EXPECT_EQ(set.targets[0].shape(), (std::vector<int>{32, 32}));
  // The auto rule: 0 resolves to the smallest pow2 >= max(64, 2 * kdim).
  EXPECT_EQ(prepare_training_set(sample_ptrs(ds), 15).train_px, 64);
  // Training twice from one prepared set reproduces the data-owning entry
  // point exactly.
  NithoTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 2;
  cfg.train_px = 32;
  NithoModel a(small_model_config(), 512, 193.0, 1.35);
  NithoModel b(small_model_config(), 512, 193.0, 1.35);
  const TrainStats sa = train_nitho(a, set, cfg);
  const TrainStats sb = train_nitho(b, sample_ptrs(ds), cfg);
  EXPECT_EQ(sa.epoch_losses, sb.epoch_losses);
}

// The stop/serialize/restore/resume protocol must be invisible in the
// arithmetic: training n epochs straight through and training k, shipping
// the trainer state through a stream into a fresh model + trainer (with a
// different init and different config — both fully overwritten), then
// resuming to n, must produce the same losses and weights bit for bit.
// This is the guarantee rollout replica adoption (src/rollout/) rides.
TEST(Trainer, SerializeRestoreResumeIsBitIdentical) {
  const Dataset ds = engine().make_dataset(DatasetKind::B2v, 5, 42);
  NithoTrainConfig cfg;
  cfg.epochs = 5;
  cfg.batch = 2;
  cfg.train_px = 32;
  cfg.seed = 11;

  NithoModel full(small_model_config(), 512, 193.0, 1.35);
  const TrainingSet set =
      prepare_training_set(sample_ptrs(ds), full.kernel_dim(), cfg.train_px);
  NithoTrainer uninterrupted(full, set, cfg);
  while (!uninterrupted.done()) uninterrupted.run_epoch();

  // Train to epoch 2, checkpoint, restore into a *differently initialized*
  // model under a *different* config — load_state must overwrite both.
  NithoModel part(small_model_config(), 512, 193.0, 1.35);
  NithoTrainer interrupted(part, set, cfg);
  interrupted.run_epoch();
  interrupted.run_epoch();
  std::stringstream state;
  interrupted.save_state(state);

  NithoConfig other_init = small_model_config();
  other_init.seed = 999;
  NithoModel fresh(other_init, 512, 193.0, 1.35);
  NithoTrainConfig other_cfg = cfg;
  other_cfg.lr = 123.0f;
  other_cfg.seed = 1;
  other_cfg.epochs = 2;
  NithoTrainer resumed(fresh, set, other_cfg);
  resumed.load_state(state);
  EXPECT_EQ(resumed.epochs_done(), 2);
  EXPECT_EQ(resumed.config().lr, cfg.lr);
  EXPECT_EQ(resumed.config().epochs, cfg.epochs);
  ASSERT_FALSE(resumed.done());
  while (!resumed.done()) resumed.run_epoch();

  ASSERT_EQ(resumed.epoch_losses().size(),
            uninterrupted.epoch_losses().size());
  for (std::size_t e = 0; e < resumed.epoch_losses().size(); ++e) {
    EXPECT_EQ(resumed.epoch_losses()[e], uninterrupted.epoch_losses()[e])
        << "epoch " << e;
  }
  EXPECT_EQ(resumed.stats().steps, uninterrupted.stats().steps);
  const auto ka = full.export_kernels();
  const auto kb = fresh.export_kernels();
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) EXPECT_EQ(ka[i], kb[i]);
}

TEST(Trainer, LoadStateRejectsIncompatibleStateWithoutPartialRestore) {
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 3, 8);
  NithoTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 2;
  cfg.train_px = 32;
  NithoModel m(small_model_config(), 512, 193.0, 1.35);
  const TrainingSet set =
      prepare_training_set(sample_ptrs(ds), m.kernel_dim(), cfg.train_px);
  NithoTrainer t(m, set, cfg);
  t.run_epoch();
  std::stringstream state;
  t.save_state(state);
  const std::string bytes = state.str();

  // A trainer over a different kernel support must reject the checkpoint
  // and keep its own weights untouched.
  NithoConfig smaller = small_model_config();
  smaller.kernel_dim = 9;
  NithoModel m2(smaller, 512, 193.0, 1.35);
  const TrainingSet set2 =
      prepare_training_set(sample_ptrs(ds), m2.kernel_dim(), cfg.train_px);
  NithoTrainer t2(m2, set2, cfg);
  const auto before = m2.export_kernels();
  std::stringstream wrong(bytes);
  EXPECT_THROW(t2.load_state(wrong), check_error);
  const auto after = m2.export_kernels();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
  EXPECT_EQ(t2.epochs_done(), 0);

  // Truncated checkpoint: throw, never zero-fill.
  std::stringstream cut(bytes.substr(0, bytes.size() / 3));
  NithoTrainer t3(m2, set2, cfg);
  EXPECT_THROW(t3.load_state(cut), check_error);
}

// A checkpoint whose weights went NaN or infinite is refused: load_state
// throws before committing anything, so the target keeps its weights, its
// epoch cursor and its loss trajectory.
TEST(Trainer, LoadStateRejectsNonFiniteWeightsWithoutPartialRestore) {
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 3, 8);
  NithoTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 2;
  cfg.train_px = 32;
  const NithoModel shape(small_model_config(), 512, 193.0, 1.35);
  const TrainingSet set =
      prepare_training_set(sample_ptrs(ds), shape.kernel_dim(), cfg.train_px);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    NithoModel src(small_model_config(), 512, 193.0, 1.35);
    NithoTrainer ts(src, set, cfg);
    ts.run_epoch();
    // Poison one weight of the last layer, then checkpoint.
    src.parameters()[3]->value[5] = bad;
    std::stringstream state;
    ts.save_state(state);

    NithoModel dst(small_model_config(), 512, 193.0, 1.35);
    NithoTrainer td(dst, set, cfg);
    const std::vector<float> before = nn::dump_parameters(dst.parameters());
    EXPECT_THROW(td.load_state(state), check_error) << bad;
    const std::vector<float> after = nn::dump_parameters(dst.parameters());
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          before.size() * sizeof(float)),
              0)
        << bad;
    EXPECT_EQ(td.epochs_done(), 0);
    EXPECT_TRUE(td.epoch_losses().empty());
  }
}

TEST(Trainer, EvaluateNithoIsDeterministicAndTracksTraining) {
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 4, 77);
  NithoModel m(small_model_config(), 512, 193.0, 1.35);
  const TrainingSet set =
      prepare_training_set(sample_ptrs(ds), m.kernel_dim(), 32);
  const double before = evaluate_nitho(m, set);
  EXPECT_EQ(before, evaluate_nitho(m, set));
  EXPECT_TRUE(std::isfinite(before));
  NithoTrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch = 2;
  cfg.train_px = 32;
  train_nitho(m, set, cfg);
  EXPECT_LT(evaluate_nitho(m, set), before);
}

TEST(Trainer, EvaluateNithoMatchesScoringThroughPredictKernels) {
  // evaluate_nitho scores a constant copy of the kernels, predicted once;
  // its loss must be bit-identical to scoring each batch through the
  // gradient-carrying predict_kernels() graph.  Five samples in batches of
  // two: three batches, the last one short.
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 5, 79);
  NithoModel m(small_model_config(), 512, 193.0, 1.35);
  const TrainingSet set =
      prepare_training_set(sample_ptrs(ds), m.kernel_dim(), 32);
  const int n = set.size(), batch = 2;
  double total = 0.0;
  for (int b = 0; b < n; b += batch) {
    const int count = std::min(batch, n - b);
    nn::Tensor spectra({count, set.kernel_dim, set.kernel_dim, 2});
    nn::Tensor targets({count, set.train_px, set.train_px});
    for (int j = 0; j < count; ++j) {
      const nn::Tensor& sp = set.spectra[static_cast<std::size_t>(b + j)];
      const nn::Tensor& tg = set.targets[static_cast<std::size_t>(b + j)];
      std::copy(sp.data(), sp.data() + sp.numel(),
                spectra.data() + j * sp.numel());
      std::copy(tg.data(), tg.data() + tg.numel(),
                targets.data() + j * tg.numel());
    }
    const nn::Var kernels = m.predict_kernels();
    ASSERT_TRUE(kernels->requires_grad);
    const nn::Var loss = nn::mse_loss_batch_ordered(
        nn::socs_intensity_batch(kernels, spectra, set.train_px), targets);
    total += static_cast<double>(loss->value[0]);
  }
  const double expected = total / static_cast<double>(n);
  const double got = evaluate_nitho(m, set, batch);
  EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
      << got << " vs " << expected;
}

TEST(Trainer, ScheduledLrMatchesRunEpochSchedule) {
  NithoTrainConfig cfg;
  cfg.epochs = 10;
  cfg.lr = 4e-3f;
  EXPECT_EQ(NithoTrainer::scheduled_lr(cfg, 0), cfg.lr);
  // End of the run: cosine decayed to 10% of base.
  EXPECT_FLOAT_EQ(NithoTrainer::scheduled_lr(cfg, 10), 0.1f * cfg.lr);
  // Monotone non-increasing across the run.
  for (int e = 1; e <= 10; ++e) {
    EXPECT_LE(NithoTrainer::scheduled_lr(cfg, e),
              NithoTrainer::scheduled_lr(cfg, e - 1));
  }
  EXPECT_THROW(NithoTrainer::scheduled_lr(cfg, 11), check_error);
}

TEST(Trainer, SamplePtrsHelpers) {
  const Dataset a = engine().make_dataset(DatasetKind::B1, 3, 1);
  const Dataset b = engine().make_dataset(DatasetKind::B2v, 2, 2);
  EXPECT_EQ(sample_ptrs(a).size(), 3u);
  EXPECT_EQ(sample_ptrs(a, 2).size(), 2u);
  EXPECT_EQ(sample_ptrs({&a, &b}).size(), 5u);
  EXPECT_EQ(sample_ptrs({&a, &b}, 1).size(), 2u);
}

TEST(Trainer, RejectsEmptyData) {
  NithoModel m(small_model_config(), 512, 193.0, 1.35);
  EXPECT_THROW(train_nitho(m, std::vector<const Sample*>{}, NithoTrainConfig{}),
               check_error);
}

}  // namespace
}  // namespace nitho
