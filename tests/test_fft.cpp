// Unit and property tests for src/fft: 1-D plans (radix-2 + Bluestein),
// 2-D transforms, shifts, centered crop/embed, and spectral resampling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/fft.hpp"
#include "fft/pruned.hpp"
#include "fft/spectral.hpp"
#include "layout/datasets.hpp"
#include "layout/raster.hpp"
#include "support/pruned_ref.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

using test::dft_reference;
using test::idft_reference;
using test::random_signal;

class FftSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(FftSizeSweep, MatchesReferenceDft) {
  const int n = GetParam();
  Rng rng(n);
  std::vector<cd> x = random_signal(n, rng);
  const std::vector<cd> ref = dft_reference(x);
  fft_plan_d(n).forward(x.data());
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), ref[k].real(), 1e-8 * n) << "n=" << n << " k=" << k;
    EXPECT_NEAR(x[k].imag(), ref[k].imag(), 1e-8 * n);
  }
}

TEST_P(FftSizeSweep, RoundTripIsIdentity) {
  const int n = GetParam();
  Rng rng(7 * n + 1);
  const std::vector<cd> orig = random_signal(n, rng);
  std::vector<cd> x = orig;
  fft_plan_d(n).forward(x.data());
  fft_plan_d(n).inverse(x.data());
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(x[k] - orig[k]), 0.0, 1e-9 * n);
  }
}

TEST_P(FftSizeSweep, ParsevalHolds) {
  const int n = GetParam();
  Rng rng(13 * n + 5);
  std::vector<cd> x = random_signal(n, rng);
  double time_energy = 0.0;
  for (const cd& v : x) time_energy += norm2(v);
  fft_plan_d(n).forward(x.data());
  double freq_energy = 0.0;
  for (const cd& v : x) freq_energy += norm2(v);
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-7 * time_energy * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 29, 31,
                                           63, 64, 100, 128, 243, 256));

// Large prime sizes exercise the Bluestein chirp-z path exclusively: no
// radix-2 or mixed-radix decomposition exists for them, so regressions in
// the chirp convolution show up here and nowhere else.
class PrimeSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrimeSizeSweep, BluesteinMatchesReferenceDft) {
  const int n = GetParam();
  Rng rng = test::make_rng(static_cast<std::uint64_t>(n));
  std::vector<cd> x = random_signal(n, rng);
  const std::vector<cd> ref = dft_reference(x);
  fft_plan_d(n).forward(x.data());
  EXPECT_TRUE(test::vectors_close(x, ref, 1e-8 * n));
}

TEST_P(PrimeSizeSweep, InverseMatchesReferenceIdft) {
  const int n = GetParam();
  Rng rng = test::make_rng(3 * static_cast<std::uint64_t>(n) + 1);
  std::vector<cd> x = random_signal(n, rng);
  const std::vector<cd> ref = idft_reference(x);
  fft_plan_d(n).inverse(x.data());
  EXPECT_TRUE(test::vectors_close(x, ref, 1e-8 * n));
}

TEST_P(PrimeSizeSweep, ForwardInverseRoundTripIsIdentity) {
  const int n = GetParam();
  Rng rng = test::make_rng(7 * static_cast<std::uint64_t>(n) + 5);
  const std::vector<cd> orig = random_signal(n, rng);
  std::vector<cd> x = orig;
  fft_plan_d(n).forward(x.data());
  fft_plan_d(n).inverse(x.data());
  EXPECT_TRUE(test::vectors_close(x, orig, 1e-9 * n));
}

TEST_P(PrimeSizeSweep, ParsevalHolds) {
  const int n = GetParam();
  Rng rng = test::make_rng(11 * static_cast<std::uint64_t>(n) + 3);
  std::vector<cd> x = random_signal(n, rng);
  double time_energy = 0.0;
  for (const cd& v : x) time_energy += norm2(v);
  fft_plan_d(n).forward(x.data());
  double freq_energy = 0.0;
  for (const cd& v : x) freq_energy += norm2(v);
  EXPECT_NEAR(freq_energy, time_energy * n, 1e-7 * time_energy * n);
}

INSTANTIATE_TEST_SUITE_P(BluesteinPrimes, PrimeSizeSweep,
                         ::testing::Values(97, 251, 509));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  const int n = 32;
  std::vector<cd> x(n, cd(0.0, 0.0));
  x[0] = cd(1.0, 0.0);
  fft_plan_d(n).forward(x.data());
  for (const cd& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, LinearityProperty) {
  const int n = 48;  // Bluestein path
  Rng rng(3);
  std::vector<cd> a = random_signal(n, rng), b = random_signal(n, rng);
  std::vector<cd> combo(n);
  const cd alpha(2.0, -1.0), beta(0.5, 3.0);
  for (int i = 0; i < n; ++i) combo[i] = alpha * a[i] + beta * b[i];
  fft_plan_d(n).forward(a.data());
  fft_plan_d(n).forward(b.data());
  fft_plan_d(n).forward(combo.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(combo[i] - (alpha * a[i] + beta * b[i])), 0.0, 1e-8);
  }
}

TEST(Fft, FloatPlanAgreesWithDouble) {
  const int n = 64;
  Rng rng(9);
  std::vector<cd> xd = random_signal(n, rng);
  std::vector<cf> xf(n);
  for (int i = 0; i < n; ++i)
    xf[i] = cf(static_cast<float>(xd[i].real()), static_cast<float>(xd[i].imag()));
  fft_plan_d(n).forward(xd.data());
  fft_plan_f(n).forward(xf.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(xf[i].real(), xd[i].real(), 1e-3);
    EXPECT_NEAR(xf[i].imag(), xd[i].imag(), 1e-3);
  }
}

TEST(Fft2, RoundTrip2D) {
  Rng rng(17);
  Grid<cd> g(16, 8);
  for (auto& v : g) v = cd(rng.normal(), rng.normal());
  const Grid<cd> orig = g;
  fft2_inplace(g);
  ifft2_inplace(g);
  for (std::size_t i = 0; i < g.size(); ++i)
    EXPECT_NEAR(std::abs(g[i] - orig[i]), 0.0, 1e-10);
}

TEST(Fft2, DcBinIsSum) {
  Grid<double> g(8, 8);
  Rng rng(21);
  for (auto& v : g) v = rng.uniform();
  const Grid<cd> spec = fft2(g);
  EXPECT_NEAR(spec(0, 0).real(), grid_sum(g), 1e-9);
  EXPECT_NEAR(spec(0, 0).imag(), 0.0, 1e-9);
}

TEST(Fft2, SeparableHarmonic) {
  // e^{2 pi i (3x/N + 5y/M)} transforms to a single bin.
  const int rows = 16, cols = 32;
  Grid<cd> g(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      const double ang = 2.0 * kPi * (5.0 * r / rows + 3.0 * c / cols);
      g(r, c) = cd(std::cos(ang), std::sin(ang));
    }
  fft2_inplace(g);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      const double expected = (r == 5 && c == 3) ? rows * cols : 0.0;
      EXPECT_NEAR(std::abs(g(r, c)), expected, 1e-8) << r << "," << c;
    }
}

TEST(Spectral, FftshiftMovesDcToCenter) {
  for (int n : {7, 8}) {
    Grid<double> g(n, n, 0.0);
    g(0, 0) = 1.0;
    const Grid<double> s = fftshift(g);
    EXPECT_DOUBLE_EQ(s(n / 2, n / 2), 1.0);
  }
}

TEST(Spectral, ShiftRoundTripEvenAndOdd) {
  Rng rng(5);
  for (int n : {6, 7, 9, 12}) {
    Grid<double> g(n, n);
    for (auto& v : g) v = rng.normal();
    EXPECT_EQ(ifftshift(fftshift(g)), g) << n;
    EXPECT_EQ(fftshift(ifftshift(g)), g) << n;
  }
}

TEST(Spectral, CropEmbedInverse) {
  Rng rng(6);
  Grid<cd> small(5, 5);
  for (auto& v : small) v = cd(rng.normal(), rng.normal());
  const Grid<cd> big = center_embed(small, 12, 12);
  const Grid<cd> back = center_crop(big, 5, 5);
  EXPECT_EQ(back, small);
}

TEST(Spectral, CropKeepsDcAligned) {
  // DC of a shifted 16-spectrum sits at 8; cropping to 5 must put it at 2.
  Grid<cd> g(16, 16, cd(0.0, 0.0));
  g(8, 8) = cd(42.0, 0.0);
  const Grid<cd> c = center_crop(g, 5, 5);
  EXPECT_DOUBLE_EQ(c(2, 2).real(), 42.0);
}

TEST(Spectral, CropRejectsLargerTarget) {
  Grid<cd> g(4, 4);
  EXPECT_THROW(center_crop(g, 5, 5), check_error);
  EXPECT_THROW(center_embed(g, 3, 3), check_error);
}

TEST(Spectral, ResampleBandLimitedIsExact) {
  // A signal band-limited to +-3 cycles survives 32 -> 64 -> 32 exactly.
  const int n = 32;
  Grid<double> g(n, n);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      g(r, c) = 1.0 + 0.5 * std::cos(2.0 * kPi * 3.0 * r / n) +
                0.25 * std::sin(2.0 * kPi * 2.0 * c / n);
  const Grid<double> up = spectral_resample(g, 2 * n, 2 * n);
  // Upsampled grid interpolates: original samples are preserved.
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      EXPECT_NEAR(up(2 * r, 2 * c), g(r, c), 1e-9);
  const Grid<double> back = spectral_resample(up, n, n);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(back[i], g[i], 1e-9);
}

TEST(Spectral, BandResampleMatchesDenseResample) {
  // Random images band-limited to an odd band x band window on m x m (a
  // random band x band image spectrally upsampled: an odd grid has no
  // Nyquist bin, so the result is real with exactly that band), resampled
  // by the pruned path and the dense one.  Radix-2, odd, Bluestein (45,
  // 97) and m + 1 outputs, up and down, odd m; the engine's 64 -> 128 at
  // band 57 first.
  struct Case {
    int band, m, out_px;
  };
  const Case cases[] = {{57, 64, 128}, {57, 64, 97}, {57, 64, 65},
                        {25, 32, 45},  {31, 32, 33}, {25, 64, 32},
                        {25, 45, 64},  {1, 1, 2},    {3, 4, 3}};
  Rng rng(9);
  for (const auto& [band, m, out_px] : cases) {
    const Grid<double> img =
        spectral_resample(test::random_grid(band, band, rng), m, m);
    const Grid<double> got = band_resample(img, band, out_px);
    const Grid<double> want = spectral_resample(img, out_px, out_px);
    ASSERT_TRUE(got.same_shape(want));
    double peak = 0.0, err = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      peak = std::max(peak, std::abs(want[i]));
      err = std::max(err, std::abs(got[i] - want[i]));
    }
    EXPECT_LE(err, 1e-13 * peak)
        << "band=" << band << " m=" << m << " out_px=" << out_px;
  }
  // The grid itself is returned on its own samples: m -> m reproduces img.
  const Grid<double> img =
      spectral_resample(test::random_grid(57, 57, rng), 64, 64);
  const Grid<double> same = band_resample(img, 57, 64);
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_NEAR(same[i], img[i], 1e-13);
  }
  EXPECT_THROW(band_resample(img, 56, 128), check_error);  // even band
  EXPECT_THROW(band_resample(img, 57, 56), check_error);   // band > out_px
  EXPECT_THROW(band_resample(Grid<double>(8, 9), 3, 16), check_error);
}

TEST(Spectral, CroppedFftMatchesFullPath) {
  Rng rng(8);
  Grid<double> img(64, 64);
  for (auto& v : img) v = rng.uniform();
  for (int crop : {1, 5, 15, 31}) {
    const Grid<cd> fast = fft2_crop_centered(img, crop);
    const Grid<cd> full = center_crop(fftshift(fft2(img)), crop, crop);
    ASSERT_EQ(fast.rows(), crop);
    for (std::size_t i = 0; i < fast.size(); ++i)
      EXPECT_NEAR(std::abs(fast[i] - full[i]), 0.0, 1e-8) << crop;
  }
}

TEST(Spectral, CroppedFftOddRowCountMatchesFullPath) {
  // Odd image sizes leave an unpaired row in the conjugate-symmetric
  // row-pairing scheme; the tail row must transform on its own.
  Rng rng(88);
  Grid<double> img(33, 33);
  for (auto& v : img) v = rng.uniform();
  for (int crop : {3, 9, 17}) {
    const Grid<cd> fast = fft2_crop_centered(img, crop);
    const Grid<cd> full = center_crop(fftshift(fft2(img)), crop, crop);
    for (std::size_t i = 0; i < fast.size(); ++i)
      EXPECT_NEAR(std::abs(fast[i] - full[i]), 0.0, 1e-8) << crop;
  }
}

// Verbatim copy of fft2_crop_centered before repeated row pairs were
// reused: every pair is transformed.  The library must match it bit for bit.
Grid<cd> legacy_fft2_crop_centered(const Grid<double>& img, int crop) {
  const int rows = img.rows(), cols = img.cols();
  const int half = crop / 2;
  const FftPlan<double>& row_plan = fft_plan_d(cols);
  Fft2Workspace ws;
  cd* row_scratch = ws.scratch_for(row_plan);
  Grid<cd> partial(rows, crop);
  std::vector<cd> buf(cols);
  int r = 0;
  for (; r + 1 < rows; r += 2) {
    const double* a = img.row(r);
    const double* b = img.row(r + 1);
    for (int c = 0; c < cols; ++c) buf[c] = cd(a[c], b[c]);
    row_plan.forward(buf.data(), row_scratch);
    for (int k = -half; k <= half; ++k) {
      const int idx = (k + cols) % cols;
      const cd z = buf[idx];
      const cd zc = std::conj(buf[(cols - idx) % cols]);
      partial(r, k + half) = 0.5 * (z + zc);
      const cd d = z - zc;
      partial(r + 1, k + half) = cd(0.5 * d.imag(), -0.5 * d.real());
    }
  }
  if (r < rows) {
    const double* a = img.row(r);
    for (int c = 0; c < cols; ++c) buf[c] = cd(a[c], 0.0);
    row_plan.forward(buf.data(), row_scratch);
    for (int k = -half; k <= half; ++k) {
      partial(r, k + half) = buf[(k + cols) % cols];
    }
  }
  const FftPlan<double>& col_plan = fft_plan_d(rows);
  cd* col_scratch = ws.scratch_for(col_plan);
  Grid<cd> out(crop, crop);
  std::vector<cd> col(rows);
  for (int j = 0; j < crop; ++j) {
    for (int r2 = 0; r2 < rows; ++r2) col[r2] = partial(r2, j);
    col_plan.forward(col.data(), col_scratch);
    for (int k = -half; k <= half; ++k) {
      out(k + half, j) = col[(k + rows) % rows];
    }
  }
  return out;
}

// Byte equality: unlike Grid ==, tells -0.0 from +0.0 and matches NaN.
bool same_bits(const Grid<cd>& a, const Grid<cd>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cd)) == 0;
}

void expect_crop_matches_legacy(const Grid<double>& img, const char* what) {
  for (const int crop : {1, 29, 31}) {
    if (crop > img.rows() || crop > img.cols()) continue;
    EXPECT_TRUE(same_bits(fft2_crop_centered(img, crop),
                          legacy_fft2_crop_centered(img, crop)))
        << what << " " << img.rows() << "x" << img.cols() << " crop " << crop;
  }
}

Grid<double> rows_from(const std::vector<std::vector<double>>& rows) {
  Grid<double> g(static_cast<int>(rows.size()),
                 static_cast<int>(rows.front().size()));
  for (int r = 0; r < g.rows(); ++r) {
    std::copy(rows[static_cast<std::size_t>(r)].begin(),
              rows[static_cast<std::size_t>(r)].end(), g.row(r));
  }
  return g;
}

TEST(Spectral, CroppedFftBitIdenticalToLegacyOnLayouts) {
  // Manhattan rasters: most row pairs repeat the pair above them.
  for (const DatasetKind kind :
       {DatasetKind::B1, DatasetKind::B2m, DatasetKind::B2v}) {
    for (const int pixel_nm : {4, 1}) {  // 256 and 1024 px
      Rng rng(500 + static_cast<int>(kind));
      const Grid<double> img =
          rasterize(make_layout(kind, 1024, rng), pixel_nm);
      expect_crop_matches_legacy(img, dataset_name(kind).c_str());
    }
  }
}

TEST(Spectral, CroppedFftBitIdenticalToLegacyOnEdgeCases) {
  Rng rng(501);
  // No repeated rows at all.
  expect_crop_matches_legacy(test::random_grid(64, 64, rng), "random");
  expect_crop_matches_legacy(test::random_grid(33, 48, rng), "random odd");
  // Odd row count with repeats: the unpaired tail row follows a reused pair.
  std::vector<double> a(40), b(40);
  for (auto& v : a) v = rng.uniform();
  for (auto& v : b) v = rng.uniform();
  expect_crop_matches_legacy(rows_from({a, b, a, b, a, b, a}), "odd repeat");
  // A pair that repeats after a gap (A, B, A): only the previous pair is
  // ever compared, so the third pair is transformed again.
  std::vector<double> c(40), d(40);
  for (auto& v : c) v = rng.uniform();
  for (auto& v : d) v = rng.uniform();
  expect_crop_matches_legacy(rows_from({a, b, c, d, a, b, a, b}), "gap");
  // A NaN row, repeated so the NaN pair itself is reused.
  std::vector<double> nan_row = a;
  nan_row[7] = std::numeric_limits<double>::quiet_NaN();
  expect_crop_matches_legacy(
      rows_from({a, b, nan_row, b, nan_row, b, c, d}), "nan");
}

TEST(Spectral, CroppedFftNeverReusesAPairAcrossSignedZeros) {
  // +0.0 == -0.0, but the two pairs transform to different zero signs, so
  // neither may stand in for the other.
  const std::vector<double> pz(16, 0.0), nz(16, -0.0);
  expect_crop_matches_legacy(rows_from({pz, pz, nz, nz}), "+0 then -0");
  // In this order the signs survive the column pass: reusing the -0.0 band
  // for the +0.0 pair would give the all -0.0 image's bits.
  const Grid<double> mixed = rows_from({nz, nz, pz, pz});
  const Grid<double> minus = rows_from({nz, nz, nz, nz});
  ASSERT_FALSE(same_bits(legacy_fft2_crop_centered(mixed, 3),
                         legacy_fft2_crop_centered(minus, 3)));
  EXPECT_TRUE(same_bits(fft2_crop_centered(mixed, 3),
                        legacy_fft2_crop_centered(mixed, 3)));
}

TEST(Fft2, WorkspaceVariantBitIdentical) {
  // The workspace-taking 2-D transforms must match the plain entry points
  // bit for bit, across power-of-two and Bluestein sizes and with one
  // workspace reused (and re-sized) across all of them.
  Rng rng(89);
  Fft2Workspace ws;
  for (const auto& [rows, cols] :
       {std::pair{8, 8}, {16, 4}, {12, 10}, {31, 17}, {9, 32}}) {
    Grid<cd> g(rows, cols);
    for (auto& v : g) v = cd(rng.normal(), rng.normal());
    Grid<cd> plain = g, with_ws = g;
    fft2_inplace(plain);
    fft2_inplace(with_ws, ws);
    EXPECT_EQ(plain, with_ws) << rows << "x" << cols;
    ifft2_inplace(plain);
    ifft2_inplace(with_ws, ws);
    EXPECT_EQ(plain, with_ws) << rows << "x" << cols;
  }
}

TEST(FftPlan, ScratchOverloadBitIdentical) {
  Rng rng(90);
  for (const int n : {16, 31, 97}) {
    const FftPlan<double>& plan = fft_plan_d(n);
    std::vector<cd> scratch(static_cast<std::size_t>(plan.scratch_size()));
    cd* sc = scratch.empty() ? nullptr : scratch.data();
    std::vector<cd> plain = random_signal(n, rng);
    std::vector<cd> with_scratch = plain;
    plan.forward(plain.data());
    plan.forward(with_scratch.data(), sc);
    EXPECT_EQ(plain, with_scratch) << "forward n=" << n;
    plan.inverse(plain.data());
    plan.inverse(with_scratch.data(), sc);
    EXPECT_EQ(plain, with_scratch) << "inverse n=" << n;
  }
}

TEST(FftPlan, ManyMatchesPerSegmentBitwise) {
  // forward_many/inverse_many over contiguous segments must match calling
  // the single-segment overloads per segment bit for bit, on radix-2 and
  // Bluestein sizes alike.
  Rng rng(91);
  for (const int n : {8, 64, 31}) {
    const int count = 5;
    const FftPlan<double>& plan = fft_plan_d(n);
    std::vector<cd> scratch(static_cast<std::size_t>(plan.scratch_size()));
    cd* sc = scratch.empty() ? nullptr : scratch.data();
    std::vector<cd> many = random_signal(n * count, rng);
    std::vector<cd> single = many;
    plan.forward_many(many.data(), count, sc);
    for (int t = 0; t < count; ++t) plan.forward(single.data() + t * n, sc);
    EXPECT_EQ(many, single) << "forward n=" << n;
    plan.inverse_many(many.data(), count, sc);
    for (int t = 0; t < count; ++t) plan.inverse(single.data() + t * n, sc);
    EXPECT_EQ(many, single) << "inverse n=" << n;
  }
}

TEST(FftPlan, PrerevMatchesPermutedInputBitwise) {
  // Writing segment elements to their bit-reversed positions and calling
  // the *_prerev entry points must reproduce the plain transforms bit for
  // bit — the skipped permutation pass is pure data movement.
  Rng rng(92);
  for (const int n : {8, 64}) {
    const int count = 3;
    const FftPlan<double>& plan = fft_plan_d(n);
    const int* rev = plan.bitrev_table();
    ASSERT_NE(rev, nullptr) << "radix-2 plans expose their permutation";
    const std::vector<cd> x = random_signal(n * count, rng);
    std::vector<cd> plain = x;
    std::vector<cd> pre(x.size());
    for (int t = 0; t < count; ++t) {
      for (int i = 0; i < n; ++i) pre[t * n + rev[i]] = x[t * n + i];
    }
    std::vector<cd> pre_fwd = pre;
    plan.forward_many(plain.data(), count, nullptr);
    plan.forward_many_prerev(pre_fwd.data(), count, nullptr);
    EXPECT_EQ(plain, pre_fwd) << "forward n=" << n;
    std::vector<cd> plain_inv = x;
    std::vector<cd> pre_inv = pre;
    plan.inverse_many(plain_inv.data(), count, nullptr);
    plan.inverse_many_prerev(pre_inv.data(), count, nullptr);
    EXPECT_EQ(plain_inv, pre_inv) << "inverse n=" << n;
  }
  // Bluestein sizes have no exposed permutation and reject prerev calls.
  const FftPlan<double>& bs = fft_plan_d(31);
  EXPECT_EQ(bs.bitrev_table(), nullptr);
  std::vector<cd> x = random_signal(31, rng);
  EXPECT_THROW(bs.forward_many_prerev(x.data(), 1, nullptr), check_error);
}

TEST(FftPlan, ColumnsMatchPerColumnBitwise) {
  // forward_columns over a row-major [n x width] block must match
  // gathering each column, transforming it alone and scattering it back,
  // bit for bit, and forward_columns_prerev must match it on a block whose
  // rows sit at bit-reversed positions.  inverse_columns_gather must match
  // the per-column inverse (then multiplied by the rescale) when its row
  // table points at the input rows — in another buffer, with every third
  // row null for a +0 row, or in place at the block's own rows — and
  // intensity_columns_gather must add exactly re*re + im*im of that
  // output.  Radix-2 (one point, no stage pair, odd and even stage counts)
  // and Bluestein sizes, widths with every vector tail.
  Rng rng(93);
  const auto bits_equal = [](const std::vector<cd>& a,
                             const std::vector<cd>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cd)) == 0;
  };
  for (const int n : {1, 2, 4, 8, 16, 32, 31, 45}) {
    for (const int width : {1, 3, 4, 29}) {
      const FftPlan<double>& plan = fft_plan_d(n);
      std::vector<cd> scratch(static_cast<std::size_t>(plan.scratch_size()));
      cd* sc = scratch.empty() ? nullptr : scratch.data();
      std::vector<cd> x = random_signal(n * width, rng);
      for (int r = 1; r < n; r += 3) {
        std::fill_n(x.data() + r * width, width, cd(0.0, 0.0));
      }
      const double rescale = static_cast<double>(n) * n + 0.5;
      const int* rev = plan.bitrev_table();
      const auto at = [rev](int r) { return rev != nullptr ? rev[r] : r; };
      const std::string where =
          "n=" + std::to_string(n) + " width=" + std::to_string(width);
      for (const bool inverse : {false, true}) {
        std::vector<cd> single = x;
        std::vector<cd> col(static_cast<std::size_t>(n));
        for (int j = 0; j < width; ++j) {
          for (int r = 0; r < n; ++r) col[r] = single[r * width + j];
          inverse ? plan.inverse(col.data(), sc) : plan.forward(col.data(), sc);
          for (int r = 0; r < n; ++r) {
            single[r * width + j] = inverse ? col[r] * rescale : col[r];
          }
        }
        // The input rows placed at their block positions.
        std::vector<cd> pre(x.size());
        for (int r = 0; r < n; ++r) {
          std::copy_n(x.data() + r * width, width,
                      pre.data() + at(r) * width);
        }
        if (!inverse) {
          std::vector<cd> cols = x;
          plan.forward_columns(cols.data(), width, sc);
          EXPECT_TRUE(bits_equal(cols, single)) << "forward " << where;
          if (rev == nullptr) {
            EXPECT_THROW(plan.forward_columns_prerev(cols.data(), width, sc),
                         check_error);
            continue;
          }
          plan.forward_columns_prerev(pre.data(), width, sc);
          EXPECT_TRUE(bits_equal(pre, single)) << "forward prerev " << where;
          continue;
        }
        std::vector<const cd*> table(static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
          table[at(r)] = r % 3 == 1 ? nullptr : x.data() + r * width;
        }
        const double nan = std::numeric_limits<double>::quiet_NaN();
        std::vector<cd> out(x.size(), cd(nan, nan));
        plan.inverse_columns_gather(table.data(), out.data(), width, sc,
                                    rescale);
        EXPECT_TRUE(bits_equal(out, single)) << "gather " << where;

        std::vector<double> acc(x.size());
        for (double& v : acc) v = rng.normal();
        std::vector<double> want = acc;
        for (std::size_t i = 0; i < want.size(); ++i) {
          want[i] += single[i].real() * single[i].real() +
                     single[i].imag() * single[i].imag();
        }
        std::vector<cd> work(x.size(), cd(nan, nan));
        plan.intensity_columns_gather(table.data(), work.data(), width, sc,
                                      rescale, acc.data());
        EXPECT_EQ(std::memcmp(acc.data(), want.data(),
                              acc.size() * sizeof(double)),
                  0)
            << "intensity " << where;

        for (int p = 0; p < n; ++p) table[p] = pre.data() + p * width;
        plan.inverse_columns_gather(table.data(), pre.data(), width, sc,
                                    rescale);
        EXPECT_TRUE(bits_equal(pre, single)) << "gather in place " << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pruned crop <-> grid transforms (fft/pruned.hpp), against the dense 2-D
// transform of the same embedded field.  Compared with ==, which equates
// ±0 (a pruned zero row may flip a zero's sign, DESIGN.md §6.3), and NaN
// positions must coincide.
// ---------------------------------------------------------------------------

template <typename R>
const FftPlan<R>& plan_of(int s) {
  if constexpr (std::is_same_v<R, double>) {
    return fft_plan_d(s);
  } else {
    return fft_plan_f(s);
  }
}

// Rows then strided columns, one plain single-transform call each.
template <typename R>
void dense_fft2(std::vector<std::complex<R>>& g, int s, bool inverse) {
  const FftPlan<R>& plan = plan_of<R>(s);
  for (int r = 0; r < s; ++r) {
    std::complex<R>* row = g.data() + static_cast<std::size_t>(r) * s;
    inverse ? plan.inverse(row) : plan.forward(row);
  }
  std::vector<std::complex<R>> col(static_cast<std::size_t>(s));
  for (int c = 0; c < s; ++c) {
    for (int r = 0; r < s; ++r) col[r] = g[static_cast<std::size_t>(r) * s + c];
    inverse ? plan.inverse(col.data()) : plan.forward(col.data());
    for (int r = 0; r < s; ++r) g[static_cast<std::size_t>(r) * s + c] = col[r];
  }
}

template <typename R>
bool same_or_both_nan(R a, R b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

template <typename R>
std::vector<std::complex<R>> random_field(std::size_t n, Rng& rng) {
  std::vector<std::complex<R>> v(n);
  for (auto& z : v) {
    z = {static_cast<R>(rng.uniform(-1.0, 1.0)),
         static_cast<R>(rng.uniform(-1.0, 1.0))};
  }
  return v;
}

enum class Poison { kNone, kNan, kInf };

template <typename R>
void poison(std::vector<std::complex<R>>& v, Poison p) {
  const R inf = std::numeric_limits<R>::infinity();
  if (p == Poison::kNan) {
    v[v.size() / 2] = {std::numeric_limits<R>::quiet_NaN(), 0};
  }
  if (p == Poison::kInf) {
    v.front() = {inf, 0};
    v.back() = {0, -inf};
  }
}

template <typename R>
void expect_band_inverse_matches_dense(int s, int kr, int kc, Poison p,
                                       Fft2WorkspaceT<R>& ws) {
  Rng rng(static_cast<std::uint64_t>(s * 131 + kr * 7 + kc));
  std::vector<std::complex<R>> crop =
      random_field<R>(static_cast<std::size_t>(kr) * kc, rng);
  poison(crop, p);
  std::vector<std::complex<R>> dense(static_cast<std::size_t>(s) * s);
  for (int a = 0; a < kr; ++a) {
    for (int c = 0; c < kc; ++c) {
      dense[static_cast<std::size_t>(centered_to_dft_index(a, kr, s)) * s +
            centered_to_dft_index(c, kc, s)] =
          crop[static_cast<std::size_t>(a) * kc + c];
    }
  }
  dense_fft2(dense, s, /*inverse=*/true);

  // Pre-poisoned with NaN: every element must be written.
  std::vector<std::complex<R>> got(dense.size(),
                                   {std::numeric_limits<R>::quiet_NaN(), 0});
  band_inverse(
      plan_of<R>(s), kr, kc, ws,
      [&](int a, std::complex<R>* row) {
        std::copy_n(crop.data() + static_cast<std::size_t>(a) * kc, kc, row);
      },
      got.data());
  // band_inverse is unnormalized; the dense reference carries 1/s^2.
  const R scale = static_cast<R>(s) * static_cast<R>(s);
  for (auto& z : dense) z *= scale;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_TRUE(same_or_both_nan(got[i].real(), dense[i].real()) &&
                same_or_both_nan(got[i].imag(), dense[i].imag()))
        << "s=" << s << " k=" << kr << "x" << kc << " at " << i << ": "
        << got[i] << " vs " << dense[i];
  }
}

template <typename R>
void expect_crop_forward_matches_dense(int s, int kr, int kc, Poison p,
                                       Fft2WorkspaceT<R>& ws) {
  Rng rng(static_cast<std::uint64_t>(s * 17 + kr * 5 + kc));
  std::vector<std::complex<R>> grid =
      random_field<R>(static_cast<std::size_t>(s) * s, rng);
  poison(grid, p);
  std::vector<std::complex<R>> dense = grid;
  dense_fft2(dense, s, /*inverse=*/false);
  int emitted = 0;
  crop_forward(plan_of<R>(s), grid.data(), kr, kc, ws,
               [&](int a, int c, std::complex<R> v) {
                 ASSERT_EQ(a * kc + c, emitted++) << "emit order is a-major";
                 const std::complex<R> ref =
                     dense[static_cast<std::size_t>(
                               centered_to_dft_index(a, kr, s)) *
                               s +
                           centered_to_dft_index(c, kc, s)];
                 ASSERT_TRUE(same_or_both_nan(v.real(), ref.real()) &&
                             same_or_both_nan(v.imag(), ref.imag()))
                     << "s=" << s << " crop (" << a << ", " << c
                     << "): " << v << " vs " << ref;
               });
  EXPECT_EQ(emitted, kr * kc);
}

// (s, kr, kc): radix-2 and Bluestein grids, k = 1 (DC only), k = s (the
// band is every row), a non-square crop; every crop wider than one row
// wraps across row 0.
template <typename R>
void sweep_pruned_transforms() {
  const int cases[][3] = {{16, 5, 5},  {64, 29, 29}, {12, 5, 5}, {45, 9, 9},
                          {16, 1, 1},  {16, 16, 16}, {15, 15, 15},
                          {32, 7, 3},  {1, 1, 1}};
  Fft2WorkspaceT<R> ws;  // one workspace across sizes: grown, reused
  for (const Poison p : {Poison::kNone, Poison::kNan, Poison::kInf}) {
    for (const auto& c : cases) {
      SCOPED_TRACE(testing::Message() << "s=" << c[0] << " poison="
                                      << static_cast<int>(p));
      expect_band_inverse_matches_dense<R>(c[0], c[1], c[2], p, ws);
      expect_crop_forward_matches_dense<R>(c[0], c[1], c[2], p, ws);
    }
  }
}

TEST(PrunedFft, MatchesDenseTransformDouble) {
  sweep_pruned_transforms<double>();
}

TEST(PrunedFft, MatchesDenseTransformFloat) {
  sweep_pruned_transforms<float>();
}

// ---------------------------------------------------------------------------
// The row-major pruned transforms against the column-strip oracles they
// replaced (support/pruned_ref.hpp), memcmp: every SIMD arm, float and
// double, radix-2 and Bluestein grids, kr != kc, kr = s, and inputs seeded
// with -0.0 (a sign slip on a zero would show).  The planes run inside
// parallel_for at 1 and 4 workers, each task on its own thread's
// workspace, the way the engine and the nn ops call them.
// ---------------------------------------------------------------------------

template <typename R>
std::vector<std::complex<R>> signed_zero_field(std::size_t n, Rng& rng) {
  std::vector<std::complex<R>> v = random_field<R>(n, rng);
  for (std::size_t i = 0; i < n; i += 3) {
    v[i] = {R(-0.0), i % 2 == 0 ? R(-0.0) : v[i].imag()};
  }
  return v;
}

template <typename R>
bool same_bytes(const std::vector<std::complex<R>>& a,
                const std::vector<std::complex<R>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

// The pruned transforms' outputs for `planes` independent crops: the
// band_inverse planes followed by the crop_forward emits, all planes
// concatenated, and one seeded accumulator per plane after band_intensity.
template <typename R>
struct PrunedOutputs {
  std::vector<std::complex<R>> planes;
  std::vector<R> intensity;

  bool operator==(const PrunedOutputs& o) const {
    return same_bytes(planes, o.planes) &&
           intensity.size() == o.intensity.size() &&
           std::memcmp(intensity.data(), o.intensity.data(),
                       intensity.size() * sizeof(R)) == 0;
  }
};

// `oracle` selects the strip versions, the intensity then being the strip
// plane squared and added with the scalar expression.  With `zero_rows`,
// every fourth crop row (a % 4 == 1) is all zeros, +0 and -0 alternating
// by row: band rows that are zero but still transformed.
template <typename R>
PrunedOutputs<R> pruned_outputs(int s, int kr, int kc, int planes,
                                bool oracle, bool zero_rows,
                                std::uint64_t seed) {
  using C = std::complex<R>;
  const FftPlan<R>& plan = plan_of<R>(s);
  const std::size_t grid = static_cast<std::size_t>(s) * s;
  const std::size_t crop = static_cast<std::size_t>(kr) * kc;
  Rng rng(seed);
  std::vector<C> crops = signed_zero_field<R>(crop * planes, rng);
  const std::vector<C> grids = signed_zero_field<R>(grid * planes, rng);
  std::vector<R> acc0(grid * planes);
  for (R& v : acc0) v = static_cast<R>(rng.normal());
  if (zero_rows) {
    for (std::size_t a = 1; a < static_cast<std::size_t>(kr) * planes;
         a += 4) {
      const R z = a % 8 == 1 ? R(0) : R(-0.0);
      std::fill_n(crops.data() + a * kc, kc, C(z, z));
    }
  }
  PrunedOutputs<R> out{std::vector<C>(planes * (grid + crop),
                                      {std::numeric_limits<R>::quiet_NaN(),
                                       0}),
                       acc0};
  parallel_for(planes, [&](std::int64_t p) {
    Fft2WorkspaceT<R>& ws = fft_thread_workspace<R>();
    const C* src = crops.data() + p * crop;
    const auto fill = [&](int a, C* row) {
      std::copy_n(src + static_cast<std::size_t>(a) * kc, kc, row);
    };
    C* field = out.planes.data() + p * grid;
    std::vector<C> z(grids.begin() + p * grid, grids.begin() + (p + 1) * grid);
    C* emitted = out.planes.data() + planes * grid + p * crop;
    const auto emit = [&](int a, int c, C v) { emitted[a * kc + c] = v; };
    R* acc = out.intensity.data() + p * grid;
    if (oracle) {
      test::band_inverse_strip_plane(plan, kr, kc, ws, fill, field);
      test::crop_forward_strip(plan, z.data(), kr, kc, ws, emit);
      for (std::size_t i = 0; i < grid; ++i) {
        acc[i] += field[i].real() * field[i].real() +
                  field[i].imag() * field[i].imag();
      }
    } else {
      band_inverse(plan, kr, kc, ws, fill, field);
      crop_forward(plan, z.data(), kr, kc, ws, emit);
      band_intensity(plan, kr, kc, ws, fill, acc);
    }
  });
  return out;
}

template <typename R>
void expect_row_major_matches_strip_oracle() {
  // (s, kr, kc, zero_rows): the production points (kdim 29 on 64 and 128,
  // 9 on 16), kr != kc both ways, kr = s with a narrower crop, the whole
  // grid, the Bluestein grids 45 and 97, the grids with no stage pair
  // (s = 1, 2) and with one pair that is both the first and the last pass
  // (s = 4), and crops with all-zero rows.
  const int cases[][4] = {
      {16, 9, 9, 0},    {16, 16, 5, 0},   {32, 7, 3, 0},  {32, 3, 11, 0},
      {32, 32, 32, 0},  {64, 29, 29, 0},  {64, 64, 17, 0}, {128, 29, 29, 0},
      {45, 9, 13, 0},   {45, 45, 45, 0},  {97, 29, 29, 0}, {97, 97, 7, 0},
      {1, 1, 1, 0},     {2, 1, 1, 0},     {2, 2, 1, 0},   {4, 3, 3, 0},
      {4, 4, 2, 0},     {4, 3, 1, 1},     {8, 5, 5, 1},   {16, 9, 9, 1},
      {64, 29, 29, 1},  {128, 29, 29, 1}, {45, 9, 13, 1}};
  constexpr int kPlanes = 6;
  test::ArmGuard guard;
  for (const auto& c : cases) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(c[0] * 1000 + c[1] * 31 + c[2]);
    const bool zero_rows = c[3] != 0;
    PrunedOutputs<R> ref;
    {
      simd::force_arm(simd::Arm::kScalar);
      set_parallel_workers(1);
      ref = pruned_outputs<R>(c[0], c[1], c[2], kPlanes, true, zero_rows,
                              seed);
    }
    std::vector<simd::Arm> arms = test::vector_arms();
    arms.insert(arms.begin(), simd::Arm::kScalar);
    for (const simd::Arm arm : arms) {
      simd::force_arm(arm);
      for (const int workers : {1, 4}) {
        set_parallel_workers(workers);
        EXPECT_TRUE(pruned_outputs<R>(c[0], c[1], c[2], kPlanes, false,
                                      zero_rows, seed) == ref)
            << "s=" << c[0] << " k=" << c[1] << "x" << c[2]
            << (zero_rows ? " zero rows" : "")
            << " arm=" << simd::arm_name(arm) << " workers=" << workers;
      }
    }
  }
  set_parallel_workers(0);
}

TEST(PrunedFft, RowMajorBitIdenticalToStripOracleDouble) {
  expect_row_major_matches_strip_oracle<double>();
}

TEST(PrunedFft, RowMajorBitIdenticalToStripOracleFloat) {
  expect_row_major_matches_strip_oracle<float>();
}

TEST(PrunedFft, CenteredIndexIsEmbedThenIfftshift) {
  // The map equals center_embed followed by ifftshift, for odd and even
  // crop and grid sizes.
  for (const int s : {8, 9, 16, 17}) {
    for (const int k : {1, 2, 5, 8}) {
      if (k > s) continue;
      Grid<double> g(k, k);
      for (int a = 0; a < k; ++a)
        for (int c = 0; c < k; ++c) g(a, c) = 1 + a * k + c;
      const Grid<double> e = ifftshift(center_embed(g, s, s));
      for (int a = 0; a < k; ++a)
        for (int c = 0; c < k; ++c)
          EXPECT_EQ(e(centered_to_dft_index(a, k, s),
                      centered_to_dft_index(c, k, s)),
                    g(a, c))
              << "s=" << s << " k=" << k;
    }
  }
}

TEST(Spectral, DownsampleAreaAverages) {
  Grid<double> g(4, 4, 1.0);
  g(0, 0) = 5.0;
  const Grid<double> d = downsample_area(g, 2);
  ASSERT_EQ(d.rows(), 2);
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);  // (5+1+1+1)/4
  EXPECT_DOUBLE_EQ(d(1, 1), 1.0);
}

TEST(Spectral, DownsampleRejectsBadFactor) {
  Grid<double> g(5, 5, 0.0);
  EXPECT_THROW(downsample_area(g, 2), check_error);
}

TEST(Spectral, UpsampleNearestReplicates) {
  Grid<double> g(2, 2);
  g(0, 0) = 1;
  g(0, 1) = 2;
  g(1, 0) = 3;
  g(1, 1) = 4;
  const Grid<double> u = upsample_nearest(g, 3);
  ASSERT_EQ(u.rows(), 6);
  EXPECT_DOUBLE_EQ(u(0, 0), 1);
  EXPECT_DOUBLE_EQ(u(2, 2), 1);
  EXPECT_DOUBLE_EQ(u(0, 5), 2);
  EXPECT_DOUBLE_EQ(u(5, 0), 3);
  EXPECT_DOUBLE_EQ(u(5, 5), 4);
}

TEST(Spectral, AbsAndRealHelpers) {
  Grid<cd> g(1, 2);
  g(0, 0) = cd(3.0, 4.0);
  g(0, 1) = cd(-1.0, 1.0);
  const Grid<double> a = abs2(g);
  EXPECT_DOUBLE_EQ(a(0, 0), 25.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
  const Grid<double> re = real_part(g);
  EXPECT_DOUBLE_EQ(re(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(re(0, 1), -1.0);
}

}  // namespace
}  // namespace nitho
