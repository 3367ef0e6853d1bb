// Tests for src/litho: SOCS / Abbe / direct-Hopkins agreement, physical
// invariants of aerial images, resist development, and the golden engine.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fft/spectral.hpp"
#include "layout/raster.hpp"
#include "litho/golden.hpp"
#include "litho/resist.hpp"
#include "litho/simulator.hpp"
#include "metrics/metrics.hpp"
#include "optics/resolution.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

constexpr double kLambda = 193.0;
constexpr double kNa = 1.35;
constexpr int kTile = 512;

LithoConfig small_config() {
  LithoConfig cfg;
  cfg.tile_nm = kTile;
  cfg.raster_px = 512;
  cfg.analysis_px = 64;
  cfg.sim_px = 32;
  cfg.spectrum_crop = 31;
  cfg.optics.source_oversample = 2;
  cfg.max_rank = 200;
  return cfg;
}

// Shared across tests: TCC build + eigendecomposition once.
const GoldenEngine& engine() {
  static const GoldenEngine e{small_config()};
  return e;
}

Grid<cd> clear_field_spectrum(int crop) {
  Grid<cd> spec(crop, crop, cd(0.0, 0.0));
  spec(crop / 2, crop / 2) = cd(1.0, 0.0);  // DC = mean transmission 1
  return spec;
}

using test::random_spectrum;

TEST(Simulator, ClearFieldImagesToUnity) {
  const auto& e = engine();
  const Grid<double> aerial =
      socs_aerial(e.kernels().kernels, clear_field_spectrum(31), 32);
  for (std::size_t i = 0; i < aerial.size(); ++i) {
    EXPECT_NEAR(aerial[i], 1.0, 1e-6);
  }
}

TEST(Simulator, DarkFieldImagesToZero) {
  const auto& e = engine();
  Grid<cd> spec(31, 31, cd(0.0, 0.0));
  const Grid<double> aerial = socs_aerial(e.kernels().kernels, spec, 32);
  for (std::size_t i = 0; i < aerial.size(); ++i) {
    EXPECT_NEAR(aerial[i], 0.0, 1e-15);
  }
}

TEST(Simulator, AerialIsNonNegative) {
  Rng rng(4);
  const auto& e = engine();
  const Grid<double> aerial =
      socs_aerial(e.kernels().kernels, random_spectrum(31, rng), 64);
  for (std::size_t i = 0; i < aerial.size(); ++i) {
    EXPECT_GE(aerial[i], 0.0);
  }
}

TEST(Simulator, SocsMatchesAbbe) {
  // The SOCS decomposition path and the direct per-source-point Abbe path
  // are independent implementations of the same physics.
  Rng rng(5);
  const auto cfg = small_config();
  const auto& e = engine();
  const Grid<cd> spec = random_spectrum(e.kernel_dim(), rng);
  const Grid<double> socs = socs_aerial(e.kernels().kernels, spec, 32);
  const Grid<double> abbe = abbe_aerial(cfg.optics, kTile, spec, 32);
  for (std::size_t i = 0; i < socs.size(); ++i) {
    EXPECT_NEAR(socs[i], abbe[i], 1e-8) << i;
  }
}

TEST(Simulator, SocsMatchesDirectHopkins) {
  Rng rng(6);
  const auto& e = engine();
  const int kdim = e.kernel_dim();
  const Grid<cd> spec = random_spectrum(kdim, rng);
  const Grid<double> socs = socs_aerial(e.kernels().kernels, spec, 32);
  const Grid<double> hopkins = hopkins_aerial_direct(e.tcc(), kdim, spec, 32);
  for (std::size_t i = 0; i < socs.size(); ++i) {
    EXPECT_NEAR(socs[i], hopkins[i], 1e-8) << i;
  }
}

TEST(Simulator, ThreeWayAgreementOnRandomMask) {
  // All three simulator paths documented in litho/simulator.hpp — SOCS
  // (production), Abbe (per-source-point) and direct Hopkins (TCC quadratic
  // form) — must agree on the spectrum of an actual random binary mask, not
  // just on synthetic Hermitian noise.
  Rng rng = test::make_rng(42);
  const auto cfg = small_config();
  const auto& e = engine();
  const int kdim = e.kernel_dim();

  const int raster = 64;
  const Grid<double> mask = test::random_mask(raster, raster, rng);
  Grid<cd> spec = fft2_crop_centered(mask, kdim);
  const double inv_n2 = 1.0 / (static_cast<double>(raster) * raster);
  for (auto& z : spec) z *= inv_n2;  // DC = mean transmission

  const Grid<double> socs = socs_aerial(e.kernels().kernels, spec, 32);
  const Grid<double> abbe = abbe_aerial(cfg.optics, kTile, spec, 32);
  const Grid<double> hopkins = hopkins_aerial_direct(e.tcc(), kdim, spec, 32);

  EXPECT_TRUE(test::grids_close(socs, abbe, 1e-8));
  EXPECT_TRUE(test::grids_close(socs, hopkins, 1e-8));
  EXPECT_TRUE(test::grids_close(abbe, hopkins, 1e-8));
}

TEST(Simulator, TruncatedSocsApproachesFullRank) {
  Rng rng(7);
  const auto& e = engine();
  const Grid<cd> spec = random_spectrum(e.kernel_dim(), rng);
  const Grid<double> full = socs_aerial(e.kernels().kernels, spec, 32);
  auto truncated = [&](int r) {
    std::vector<Grid<cd>> ks(e.kernels().kernels.begin(),
                             e.kernels().kernels.begin() + r);
    return socs_aerial(ks, spec, 32);
  };
  const double err8 = mse(full, truncated(8));
  const double err24 = mse(full, truncated(24));
  const double err64 = mse(full, truncated(64));
  EXPECT_LT(err24, err8);
  EXPECT_LT(err64, err24);
}

TEST(Simulator, OutputGridConsistency) {
  // Computing at 32 and upsampling must equal computing directly at 64:
  // both sample the same band-limited intensity.
  Rng rng(8);
  const auto& e = engine();
  const Grid<cd> spec = random_spectrum(e.kernel_dim(), rng);
  const Grid<double> low = socs_aerial(e.kernels().kernels, spec, 32);
  const Grid<double> high = socs_aerial(e.kernels().kernels, spec, 64);
  const Grid<double> up = spectral_resample(low, 64, 64);
  for (std::size_t i = 0; i < up.size(); ++i) {
    EXPECT_NEAR(up[i], high[i], 1e-9);
  }
}

TEST(Simulator, RejectsUndersizedOutput) {
  const auto& e = engine();
  EXPECT_THROW(socs_aerial(e.kernels().kernels, clear_field_spectrum(31), 8),
               check_error);
}

TEST(Simulator, IntensityQuadraticInMaskAmplitude) {
  // Scaling the mask transmission by a scales the intensity by a^2 (the
  // imaging operator is a quadratic form, Eq. 1).
  Rng rng(12);
  const auto& e = engine();
  const Grid<cd> spec = random_spectrum(e.kernel_dim(), rng);
  Grid<cd> scaled = spec;
  for (auto& z : scaled) z *= 0.5;
  const Grid<double> full = socs_aerial(e.kernels().kernels, spec, 32);
  const Grid<double> half = socs_aerial(e.kernels().kernels, scaled, 32);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(half[i], 0.25 * full[i], 1e-10 + 1e-9 * full[i]);
  }
}

TEST(Simulator, TranslationEquivariance) {
  // A phase ramp on the mask spectrum translates the aerial image
  // cyclically: shift by one output pixel = W/out_px nm.
  Rng rng(13);
  const auto& e = engine();
  const int kdim = e.kernel_dim();
  const int out = 32;
  const Grid<cd> spec = random_spectrum(kdim, rng);
  Grid<cd> shifted(kdim, kdim);
  const int half = kdim / 2;
  for (int r = 0; r < kdim; ++r) {
    for (int c = 0; c < kdim; ++c) {
      // exp(-2 pi i k_x / out): one-pixel shift along x on the out grid.
      const double ang = 2.0 * kPi * (c - half) / out;
      shifted(r, c) = spec(r, c) * cd(std::cos(ang), std::sin(ang));
    }
  }
  const Grid<double> base = socs_aerial(e.kernels().kernels, spec, out);
  const Grid<double> moved = socs_aerial(e.kernels().kernels, shifted, out);
  // c_k -> c_k e^{+2 pi i k / out} gives E'_j = E_{j+1}: a one-pixel shift
  // toward smaller x.
  for (int r = 0; r < out; ++r) {
    for (int c = 0; c < out; ++c) {
      EXPECT_NEAR(moved(r, (c + out - 1) % out), base(r, c), 1e-9)
          << r << "," << c;
    }
  }
}

TEST(Simulator, SourceShapeChangesImaging) {
  // Different illumination -> different aerial image for the same mask
  // (the system information Nitho must learn actually varies).
  Rng rng(14);
  const auto cfg = small_config();
  const Grid<cd> spec = random_spectrum(15, rng);
  OpticalSystem quad = cfg.optics;
  quad.source.shape = SourceShape::Quadrupole;
  const Grid<double> a = abbe_aerial(cfg.optics, kTile, spec, 32);
  const Grid<double> b = abbe_aerial(quad, kTile, spec, 32);
  EXPECT_GT(mse(a, b), 1e-6);
}

TEST(Simulator, DefocusPreservesTotalEnergyApproximately) {
  // Phase-only pupil aberrations redistribute intensity; the DC term of the
  // intensity spectrum (mean intensity) is preserved for a clear field.
  const auto cfg = small_config();
  OpticalSystem defocused = cfg.optics;
  defocused.pupil.defocus_nm = 80.0;
  const Grid<double> clear =
      abbe_aerial(defocused, kTile, clear_field_spectrum(15), 32);
  for (std::size_t i = 0; i < clear.size(); ++i) {
    EXPECT_NEAR(clear[i], 1.0, 1e-9);
  }
}

TEST(Resist, HardThreshold) {
  Grid<double> aerial(2, 2);
  aerial(0, 0) = 0.1;
  aerial(0, 1) = 0.3;
  aerial(1, 0) = 0.25;
  aerial(1, 1) = 0.0;
  ResistModel m;  // threshold 0.25
  const Grid<double> z = develop(aerial, m);
  EXPECT_DOUBLE_EQ(z(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(z(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(z(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(z(1, 1), 0.0);
}

TEST(Resist, SigmoidIsMonotoneAndBounded) {
  Grid<double> aerial(1, 3);
  aerial(0, 0) = 0.1;
  aerial(0, 1) = 0.25;
  aerial(0, 2) = 0.4;
  ResistModel m;
  m.steepness = 30.0;
  const Grid<double> z = develop(aerial, m);
  EXPECT_LT(z(0, 0), z(0, 1));
  EXPECT_LT(z(0, 1), z(0, 2));
  EXPECT_NEAR(z(0, 1), 0.5, 1e-9);
  EXPECT_GT(z(0, 0), 0.0);
  EXPECT_LT(z(0, 2), 1.0);
}

TEST(Golden, EngineReportsPhysicalKernelDim) {
  EXPECT_EQ(engine().kernel_dim(), kernel_dim(kTile, kLambda, kNa));
  EXPECT_EQ(engine().kernel_dim(), 15);
}

TEST(Golden, RejectsAnAnalysisGridThatCannotDivideTheRaster) {
  // make_sample divides the raster by analysis_px (0 would be SIGFPE) and
  // downsample_area needs a positive factor, so the constructor rejects
  // all three before any TCC work.
  for (const int analysis_px : {0, -16, 48}) {
    LithoConfig cfg = small_config();
    cfg.analysis_px = analysis_px;  // 48 >= sim_px but does not divide 512
    EXPECT_THROW(GoldenEngine{cfg}, check_error) << analysis_px;
  }
}

TEST(Golden, SampleShapesAndRanges) {
  Rng rng(9);
  const Layout l = make_layout(DatasetKind::B1, kTile, rng);
  const Sample s = engine().make_sample(rasterize(l, 1));
  EXPECT_EQ(s.spectrum.rows(), 31);
  EXPECT_EQ(s.mask_coarse.rows(), 64);
  EXPECT_EQ(s.aerial.rows(), 64);
  EXPECT_EQ(s.resist.rows(), 64);
  // DC Fourier coefficient equals the pattern density.
  const double density = pattern_density(rasterize(l, 1));
  EXPECT_NEAR(s.spectrum(15, 15).real(), density, 1e-9);
  for (std::size_t i = 0; i < s.resist.size(); ++i) {
    EXPECT_TRUE(s.resist[i] == 0.0 || s.resist[i] == 1.0);
  }
  EXPECT_GE(grid_min(s.aerial), -1e-9);
}

TEST(Golden, DatasetDeterministicAndSized) {
  const Dataset a = engine().make_dataset(DatasetKind::B2v, 3, 42);
  const Dataset b = engine().make_dataset(DatasetKind::B2v, 3, 42);
  ASSERT_EQ(a.samples.size(), 3u);
  EXPECT_EQ(a.name, "B2v");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.samples[i].aerial, b.samples[i].aerial);
  }
}

TEST(Golden, ReferenceAerialMatchesSample) {
  // The rigorous Abbe reference and the production SOCS path must agree.
  Rng rng(10);
  const Layout l = make_layout(DatasetKind::B2m, kTile, rng);
  const Grid<double> mask = rasterize(l, 1);
  const Sample s = engine().make_sample(mask);
  const Grid<double> ref = engine().reference_aerial(mask);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    worst = std::max(worst, std::abs(ref[i] - s.aerial[i]));
  EXPECT_LT(worst, 2e-4);  // golden truncates at rank_tol; tail is tiny
}

TEST(Golden, PrintsSomeResist) {
  // At the default threshold real layouts print features (not all-0/all-1).
  const Dataset ds = engine().make_dataset(DatasetKind::B1, 2, 7);
  for (const Sample& s : ds.samples) {
    const double frac = grid_sum(s.resist) / static_cast<double>(s.resist.size());
    EXPECT_GT(frac, 0.005);
    EXPECT_LT(frac, 0.95);
  }
}

}  // namespace
}  // namespace nitho
