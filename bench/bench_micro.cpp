// Microbenchmarks (google-benchmark): the computational primitives behind
// every experiment — FFTs, eigensolver, TCC build, SOCS imaging, CMLP
// forward/backward, convolution.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <complex>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "fft/pruned.hpp"
#include "fft/spectral.hpp"
#include "math/hermitian_eig.hpp"
#include "nitho/cmlp.hpp"
#include "nitho/encoding.hpp"
#include "nitho/model.hpp"
#include "nitho/trainer.hpp"
#include "nn/gemm.hpp"
#include "nn/ops.hpp"
#include "nn/ops_conv.hpp"
#include "nn/optimizer.hpp"
#include "litho/engine.hpp"
#include "litho/simulator.hpp"
#include "optics/resolution.hpp"
#include "optics/socs.hpp"
#include "optics/tcc.hpp"

namespace nitho {
namespace {

void BM_Fft1d(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<cd> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = cd(rng.normal(), rng.normal());
  const FftPlan<double>& plan = fft_plan_d(n);
  for (auto _ : state) {
    plan.forward(x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft1d)->Arg(64)->Arg(243)->Arg(256)->Arg(1024);

void BM_Fft2d(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Grid<cd> g(n, n);
  for (auto& v : g) v = cd(rng.normal(), rng.normal());
  for (auto _ : state) {
    fft2_inplace(g);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_Fft2d)->Arg(64)->Arg(128)->Arg(256);

void BM_FftCropCentered(benchmark::State& state) {
  Rng rng(3);
  Grid<double> img(1024, 1024);
  for (auto& v : img) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fft2_crop_centered(img, 63));
  }
}
BENCHMARK(BM_FftCropCentered);

// One plane of the pruned crop <-> grid transforms (fft/pruned.hpp), the
// per-kernel FFT cost of the aerial engine (double, s = 128) and the nn SOCS
// ops (float, s = 64): a kdim-29 crop to an s x s field plane, and back.
template <typename R>
const FftPlan<R>& plan_for(int s) {
  if constexpr (std::is_same_v<R, double>) {
    return fft_plan_d(s);
  } else {
    return fft_plan_f(s);
  }
}

template <typename R>
void BM_BandInverse(benchmark::State& state) {
  using C = std::complex<R>;
  const int s = static_cast<int>(state.range(0));
  const int kdim = 29;
  Rng rng(4);
  std::vector<C> crop(static_cast<std::size_t>(kdim) * kdim);
  for (auto& v : crop) {
    v = C(static_cast<R>(rng.normal()), static_cast<R>(rng.normal()));
  }
  std::vector<C> plane(static_cast<std::size_t>(s) * s);
  Fft2WorkspaceT<R> ws;
  const FftPlan<R>& plan = plan_for<R>(s);
  for (auto _ : state) {
    band_inverse(
        plan, kdim, kdim, ws,
        [&](int a, C* row) {
          std::copy_n(crop.data() + static_cast<std::size_t>(a) * kdim, kdim,
                      row);
        },
        plane.data());
    benchmark::DoNotOptimize(plane.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BandInverse<float>)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_BandInverse<double>)->Arg(32)->Arg(64)->Arg(128);

// One SOCS kernel's coherent-intensity term, as the aerial engine (double)
// and the no-gradient socs_intensity_forward (float) run it: a kdim-29
// crop through the pruned inverse, |.|^2 added to an s x s accumulator.
template <typename R>
void BM_PlaneIntensity(benchmark::State& state) {
  using C = std::complex<R>;
  const int s = static_cast<int>(state.range(0));
  const int kdim = 29;
  Rng rng(4);
  std::vector<C> crop(static_cast<std::size_t>(kdim) * kdim);
  for (auto& v : crop) {
    v = C(static_cast<R>(rng.normal()), static_cast<R>(rng.normal()));
  }
  std::vector<R> acc(static_cast<std::size_t>(s) * s, R(0));
  Fft2WorkspaceT<R> ws;
  const FftPlan<R>& plan = plan_for<R>(s);
  for (auto _ : state) {
    band_intensity(
        plan, kdim, kdim, ws,
        [&](int a, C* row) {
          std::copy_n(crop.data() + static_cast<std::size_t>(a) * kdim, kdim,
                      row);
        },
        acc.data());
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlaneIntensity<float>)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_PlaneIntensity<double>)->Arg(32)->Arg(64)->Arg(128);

void BM_CropForward(benchmark::State& state) {
  using C = std::complex<float>;
  const int s = 64, kdim = 29;
  Rng rng(5);
  std::vector<C> grid(static_cast<std::size_t>(s) * s);
  for (auto& v : grid) v = C(static_cast<float>(rng.normal()), 0.0f);
  std::vector<C> z(grid.size());
  std::vector<C> crop(static_cast<std::size_t>(kdim) * kdim);
  Fft2WorkspaceF ws;
  const FftPlan<float>& plan = fft_plan_f(s);
  for (auto _ : state) {
    // crop_forward consumes its grid; the copy is part of every caller.
    std::copy(grid.begin(), grid.end(), z.begin());
    crop_forward(plan, z.data(), kdim, kdim, ws, [&](int a, int c, C v) {
      crop[static_cast<std::size_t>(a) * kdim + c] = v;
    });
    benchmark::DoNotOptimize(crop.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CropForward);

void BM_HermitianEigh(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  Grid<cd> a(n, n);
  for (int i = 0; i < n; ++i) {
    a(i, i) = cd(rng.normal(), 0.0);
    for (int j = i + 1; j < n; ++j) {
      const cd v(rng.normal(), rng.normal());
      a(i, j) = v;
      a(j, i) = std::conj(v);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigh(a));
  }
}
BENCHMARK(BM_HermitianEigh)->Arg(64)->Arg(225)->Unit(benchmark::kMillisecond);

void BM_TccBuild(benchmark::State& state) {
  OpticalSystem sys;
  const int kdim = kernel_dim(512, sys.wavelength_nm, sys.na);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_tcc(sys, 512, kdim));
  }
}
BENCHMARK(BM_TccBuild)->Unit(benchmark::kMillisecond);

void BM_SocsAerial(benchmark::State& state) {
  const int rank = static_cast<int>(state.range(0));
  OpticalSystem sys;
  const int kdim = kernel_dim(512, sys.wavelength_nm, sys.na);
  const Grid<cd> tcc = build_tcc(sys, 512, kdim);
  const SocsKernels socs = socs_decompose(tcc, kdim, 0.0, rank);
  Rng rng(5);
  Grid<cd> spec(kdim, kdim);
  for (auto& v : spec) v = cd(rng.normal() * 0.05, rng.normal() * 0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(socs_aerial(socs.kernels, spec, 64));
  }
  state.SetLabel("rank=" + std::to_string(socs.rank()));
}
BENCHMARK(BM_SocsAerial)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_Fft2dWorkspace(benchmark::State& state) {
  // fft2_inplace with a reused workspace: the per-call column buffer and
  // Bluestein scratch disappear (compare against BM_Fft2d).
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Grid<cd> g(n, n);
  for (auto& v : g) v = cd(rng.normal(), rng.normal());
  Fft2Workspace ws;
  for (auto _ : state) {
    fft2_inplace(g, ws);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_Fft2dWorkspace)->Arg(64)->Arg(128)->Arg(256);

void BM_AerialEngineSingle(benchmark::State& state) {
  // Persistent engine, one spectrum per call (compare against
  // BM_SocsAerial, which pays transient-engine setup per call).
  const int rank = static_cast<int>(state.range(0));
  OpticalSystem sys;
  const int kdim = kernel_dim(512, sys.wavelength_nm, sys.na);
  const Grid<cd> tcc = build_tcc(sys, 512, kdim);
  const SocsKernels socs = socs_decompose(tcc, kdim, 0.0, rank);
  const AerialEngine engine(socs.kernels, 64);
  Rng rng(5);
  Grid<cd> spec(kdim, kdim);
  for (auto& v : spec) v = cd(rng.normal() * 0.05, rng.normal() * 0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.aerial(spec));
  }
  state.SetLabel("rank=" + std::to_string(socs.rank()));
}
BENCHMARK(BM_AerialEngineSingle)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_AerialEngineBatch(benchmark::State& state) {
  // Eight spectra per engine sweep; items processed counts spectra so the
  // per-mask rate is directly comparable to BM_AerialEngineSingle.  Args:
  // rank, tile (nm), out_px; {24, 1024, 128} is the imaging workload's
  // shape (kdim 29, summed on 64 and resampled to 128).
  const int rank = static_cast<int>(state.range(0));
  const int tile_nm = static_cast<int>(state.range(1));
  const int out_px = static_cast<int>(state.range(2));
  OpticalSystem sys;
  const int kdim = kernel_dim(tile_nm, sys.wavelength_nm, sys.na);
  const Grid<cd> tcc = build_tcc(sys, tile_nm, kdim);
  const SocsKernels socs = socs_decompose(tcc, kdim, 0.0, rank);
  const AerialEngine engine(socs.kernels, out_px);
  Rng rng(5);
  std::vector<Grid<cd>> spectra(8, Grid<cd>(kdim, kdim));
  for (auto& spec : spectra) {
    for (auto& v : spec) v = cd(rng.normal() * 0.05, rng.normal() * 0.05);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.aerial_batch(spectra));
  }
  state.SetItemsProcessed(state.iterations() * 8);
  state.SetLabel("rank=" + std::to_string(socs.rank()) + " kdim=" +
                 std::to_string(kdim) + " sim_px=" +
                 std::to_string(engine.sim_px()) + " batch=8");
}
BENCHMARK(BM_AerialEngineBatch)
    ->Args({8, 512, 64})
    ->Args({32, 512, 64})
    ->Args({128, 512, 64})
    ->Args({24, 1024, 128})
    ->Unit(benchmark::kMillisecond);

// The engine's exact resample at the imaging workload's shape: a 64 x 64
// intensity with band 2*29 - 1 = 57, to 128 x 128.
void BM_BandResample(benchmark::State& state) {
  Rng rng(6);
  Grid<double> band(57, 57);
  for (auto& v : band) v = rng.uniform();
  const Grid<double> img = spectral_resample(band, 64, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(band_resample(img, 57, 128));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BandResample);

void BM_CmlpForward(benchmark::State& state) {
  CmlpConfig cfg;
  cfg.in_features = 96;
  cfg.hidden = 48;
  cfg.blocks = 2;
  cfg.out = 24;
  Cmlp mlp(cfg);
  EncodingConfig ec;
  ec.features = 96;
  const nn::Tensor coords = encode_coordinates(29, 29, ec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.forward(nn::make_leaf(coords, false)));
  }
  state.SetLabel("29x29 coords");
}
BENCHMARK(BM_CmlpForward)->Unit(benchmark::kMillisecond);

void BM_CmlpTrainStep(benchmark::State& state) {
  CmlpConfig cfg;
  cfg.in_features = 96;
  cfg.hidden = 48;
  cfg.blocks = 2;
  cfg.out = 24;
  Cmlp mlp(cfg);
  EncodingConfig ec;
  ec.features = 96;
  const nn::Tensor coords = encode_coordinates(29, 29, ec);
  nn::Tensor target({29 * 29, 24, 2});
  Rng rng(6);
  target.randn(rng, 0.1f);
  nn::Adam opt(mlp.parameters(), 1e-3f);
  for (auto _ : state) {
    opt.zero_grad();
    nn::Var loss = nn::mse_loss(mlp.forward(nn::make_leaf(coords, false)), target);
    nn::backward(loss);
    opt.step();
    benchmark::DoNotOptimize(loss->value[0]);
  }
}
BENCHMARK(BM_CmlpTrainStep)->Unit(benchmark::kMillisecond);

// CMLP-shaped GEMM through nn::gemm_dense, the library's one GEMM: left
// operand dense or half zeros (ReLU-sparse), which the dense fold does not
// skip.
void BM_GemmNNDense(benchmark::State& state) {
  const std::int64_t m = 841, k = 96, n = 48;  // paper-scale CMLP layer
  const double zero_frac = state.range(0) / 100.0;
  Rng rng(8);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto& v : a) {
    v = rng.uniform() < zero_frac ? 0.0f : static_cast<float>(rng.normal());
  }
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::gemm_dense(m, n, k, a.data(), k, 1, b.data(), n, c.data(), n, false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
  state.SetLabel("zeros=" + std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_GemmNNDense)->Arg(0)->Arg(50);

// One Algorithm-1 optimizer step at paper scale (kdim 29, rank 24, px 64,
// batch 4) on synthetic spectra/targets through the tensor-batched trainer.
// Items processed counts optimizer steps.
TrainingSet synthetic_training_set(int samples, int kdim, int px) {
  Rng rng(12);
  TrainingSet set;
  set.kernel_dim = kdim;
  set.train_px = px;
  for (int i = 0; i < samples; ++i) {
    nn::Tensor spec({kdim, kdim, 2});
    spec.randn(rng, 0.05f);
    nn::Tensor tgt({px, px});
    for (std::int64_t p = 0; p < tgt.numel(); ++p) {
      tgt[p] = static_cast<float>(rng.uniform());
    }
    set.spectra.push_back(std::move(spec));
    set.targets.push_back(std::move(tgt));
  }
  return set;
}

NithoConfig train_step_model_config() {
  NithoConfig mc;
  mc.kernel_dim = 29;
  mc.rank = 24;
  mc.encoding.features = 96;
  mc.hidden = 48;
  mc.blocks = 2;
  return mc;
}

void BM_TrainStepBatched(benchmark::State& state) {
  const TrainingSet set = synthetic_training_set(4, 29, 64);
  NithoModel model(train_step_model_config(), 1000, 193.0, 1.35);
  NithoTrainConfig cfg;
  cfg.epochs = 5;  // 5 steps: the graph arena warms up after the first
  cfg.batch = 4;
  cfg.train_px = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_nitho(model, set, cfg));
  }
  state.SetItemsProcessed(state.iterations() * cfg.epochs);
  state.SetLabel("kdim=29 rank=24 px=64 batch=4");
}
BENCHMARK(BM_TrainStepBatched)->Unit(benchmark::kMillisecond);

// One conv2d layer (16 -> 16 channels, 3x3, 64x64), forward plus backward
// with x, W and b all requiring a gradient: the three GEMMs of a DOINN /
// TEMPO training step.  Gradients accumulate across iterations.
void BM_Conv2d(benchmark::State& state) {
  Rng rng(7);
  nn::Tensor x({16, 64, 64});
  x.randn(rng, 1.0f);
  nn::Tensor w({16, 16, 3, 3});
  w.randn(rng, 0.1f);
  nn::Var vx = nn::make_leaf(x, true);
  nn::Var vw = nn::make_leaf(w, true);
  nn::Var vb = nn::make_leaf(nn::Tensor({16}), true);
  for (auto _ : state) {
    nn::backward(nn::sum(nn::conv2d(vx, vw, vb)));
    benchmark::DoNotOptimize(vw->grad.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Conv2d)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nitho

BENCHMARK_MAIN();
