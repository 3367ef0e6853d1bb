// Tests for litho/engine.hpp: the batched AerialEngine must reproduce the
// pre-refactor socs_aerial arithmetic bit for bit on its sim_px grid (the
// legacy loop is reimplemented here as the pinned reference), across
// odd/even output grids and prime (Bluestein) kernel dimensions, under
// batching, and under concurrent callers.  Above sim_px its output is, by
// memcmp, the sim_px engine's intensity through band_resample, and equal
// to the legacy loop at out_px to rounding (DESIGN.md §6.5).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "fft/fft.hpp"
#include "fft/spectral.hpp"
#include "layout/datasets.hpp"
#include "layout/raster.hpp"
#include "litho/engine.hpp"
#include "litho/simulator.hpp"
#include "nitho/fast_litho.hpp"
#include "nitho/model.hpp"
#include "support/pruned_ref.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

using test::make_rng;
using test::random_mask;
using test::random_spectrum;

// Verbatim reimplementation of the pre-AerialEngine socs_aerial hot loop
// (per-kernel allocations, ifftshift(center_embed(...)), full-grid inverse
// transform, grain-8 ordered reduction).  The engine must match it exactly:
// any bitwise drift here is a regression against historical golden data.
Grid<double> legacy_socs_aerial(const std::vector<Grid<cd>>& kernels,
                                const Grid<cd>& spectrum, int out_px) {
  const int kdim = kernels[0].rows();
  const Grid<cd> c = center_crop(spectrum, kdim, kdim);
  const std::int64_t n = static_cast<std::int64_t>(kernels.size());
  const std::int64_t grain = 8;
  const std::int64_t chunks = (n + grain - 1) / grain;
  std::vector<Grid<double>> partial(static_cast<std::size_t>(chunks));
  for (std::int64_t ci = 0; ci < chunks; ++ci) {
    Grid<double> local(out_px, out_px, 0.0);
    const std::int64_t begin = ci * grain;
    const std::int64_t end = std::min(n, begin + grain);
    for (std::int64_t i = begin; i < end; ++i) {
      const Grid<cd>& k = kernels[static_cast<std::size_t>(i)];
      Grid<cd> prod(kdim, kdim);
      for (std::size_t a = 0; a < prod.size(); ++a) prod[a] = k[a] * c[a];
      Grid<cd> e = ifftshift(center_embed(prod, out_px, out_px));
      ifft2_inplace(e);
      const double scale = static_cast<double>(out_px) * out_px;
      for (auto& z : e) z *= scale;
      for (std::size_t a = 0; a < local.size(); ++a) local[a] += norm2(e[a]);
    }
    partial[static_cast<std::size_t>(ci)] = std::move(local);
  }
  Grid<double> intensity(out_px, out_px, 0.0);
  for (const Grid<double>& p : partial) {
    for (std::size_t a = 0; a < intensity.size(); ++a) intensity[a] += p[a];
  }
  return intensity;
}

std::vector<Grid<cd>> random_kernels(int count, int kdim, Rng& rng) {
  // Dark borders exercise the engine's structurally-zero row pruning.
  return test::random_kernels(count, kdim, rng, /*dark_border=*/true);
}

// The grid the engine is expected to sum on: the smallest power of two
// holding the intensity band 2*kdim - 1, capped at out_px.
int expected_sim_px(int kdim, int out_px) {
  int m = 1;
  while (m < 2 * kdim - 1) m *= 2;
  return std::min(m, out_px);
}

bool bit_equal(const Grid<double>& a, const Grid<double>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(AerialEngine, BitIdenticalToLegacyAcrossOutputSizes) {
  Rng rng = make_rng(71);
  // Every case has out_px <= m, so the engine sums on out_px itself.
  // Prime kdim exercises the Bluestein path for the kernel support; the
  // out_px list covers even, odd and prime (Bluestein) output grids.  Odd
  // and prime out_px take the natural-order column batch, powers of two the
  // bit-reversed one.  kdim 29 at out_px 64 is the production point: the
  // band wraps across row 0 and the column batch is radix-2.
  const std::vector<std::pair<int, std::vector<int>>> cases = {
      {13, {13, 14, 17, 32}},
      {9, {9, 10, 16, 17, 32}},
      {3, {4}},
      {29, {64}}};
  for (const auto& [kdim, sizes] : cases) {
    const std::vector<Grid<cd>> kernels = random_kernels(11, kdim, rng);
    const Grid<cd> spectrum = random_spectrum(kdim + 8, rng);
    for (const int out_px : sizes) {
      const AerialEngine engine(kernels, out_px);
      ASSERT_EQ(engine.sim_px(), out_px) << "kdim=" << kdim;
      const Grid<double> got = engine.aerial(spectrum);
      const Grid<double> want = legacy_socs_aerial(kernels, spectrum, out_px);
      EXPECT_TRUE(bit_equal(got, want))
          << "kdim=" << kdim << " out_px=" << out_px;
    }
  }
}

// The engine's arithmetic before its pruned inverse went row-major, on
// the column-strip oracle (support/pruned_ref.hpp): each kernel's strip
// columns are scaled, squared and added into a transposed partial, which
// is transposed back per grain-8 chunk and reduced in chunk order.
Grid<double> strip_engine_aerial(const std::vector<Grid<cd>>& kernels,
                                 const Grid<cd>& spectrum, int out_px) {
  const int kdim = kernels[0].rows();
  const FftPlan<double>& plan = fft_plan_d(out_px);
  Fft2Workspace ws;
  const int r0 = spectrum.rows() / 2 - kdim / 2;
  const int c0 = spectrum.cols() / 2 - kdim / 2;
  const std::size_t n = kernels.size();
  std::vector<Grid<double>> partial;
  for (std::size_t begin = 0; begin < n; begin += 8) {
    Grid<double> local_t(out_px, out_px, 0.0);
    for (std::size_t i = begin; i < std::min(n, begin + 8); ++i) {
      const Grid<cd>& k = kernels[i];
      test::band_inverse_strip(
          plan, kdim, kdim, ws,
          [&](int r, cd* row) {
            simd::cmul(row, k.row(r), spectrum.row(r0 + r) + c0, kdim);
          },
          [&](int c, int cb, const cd* cols, double scale) {
            double* acc = local_t.data() + static_cast<std::size_t>(c) * out_px;
            for (int e = 0; e < cb * out_px; ++e) {
              const cd v = cols[e] * scale;
              acc[e] += norm2(v);
            }
          });
    }
    Grid<double> local(out_px, out_px);
    for (int r = 0; r < out_px; ++r)
      for (int c = 0; c < out_px; ++c) local(r, c) = local_t(c, r);
    partial.push_back(std::move(local));
  }
  return reduce_ordered(partial.data(), partial.size(), out_px);
}

// Kernels and three spectra for one engine case.  With zero_rows, every
// third kernel row is all zeros (+0 and -0 by kernel); every fifth
// spectrum entry is -0.0.
struct EngineInputs {
  std::vector<Grid<cd>> kernels;
  std::vector<Grid<cd>> spectra;
};

EngineInputs engine_inputs(int kdim, bool zero_rows, Rng& rng) {
  EngineInputs in;
  in.kernels = random_kernels(11, kdim, rng);
  if (zero_rows) {
    for (std::size_t i = 0; i < in.kernels.size(); ++i) {
      const double z = i % 2 == 0 ? 0.0 : -0.0;
      for (int r = 1; r < kdim; r += 3) {
        for (int c = 0; c < kdim; ++c) in.kernels[i](r, c) = cd(z, z);
      }
    }
  }
  for (int b = 0; b < 3; ++b) {
    Grid<cd> sp = random_spectrum((kdim | 1) + 8, rng);
    for (std::size_t i = 0; i < sp.size(); i += 5) sp[i] = cd(-0.0, -0.0);
    in.spectra.push_back(std::move(sp));
  }
  return in;
}

// memcmp of engine.aerial_batch(spectra) against want on every SIMD arm at
// 1 and 4 workers.
void expect_batch_on_every_arm(const AerialEngine& engine,
                               const std::vector<Grid<cd>>& spectra,
                               const std::vector<Grid<double>>& want,
                               const std::string& label) {
  std::vector<simd::Arm> arms = test::vector_arms();
  arms.insert(arms.begin(), simd::Arm::kScalar);
  for (const simd::Arm arm : arms) {
    simd::force_arm(arm);
    for (const int workers : {1, 4}) {
      set_parallel_workers(workers);
      const std::vector<Grid<double>> got = engine.aerial_batch(spectra);
      for (std::size_t b = 0; b < spectra.size(); ++b) {
        EXPECT_TRUE(bit_equal(got[b], want[b]))
            << label << " mask " << b << " arm=" << simd::arm_name(arm)
            << " workers=" << workers;
      }
    }
  }
  set_parallel_workers(0);
}

struct EngineCase {
  int kdim, out_px;
  bool zero_rows;
};

std::string case_label(const EngineCase& c) {
  return "kdim=" + std::to_string(c.kdim) +
         " out_px=" + std::to_string(c.out_px) +
         (c.zero_rows ? " zero rows" : "");
}

TEST(AerialEngine, BitIdenticalToStripOracle) {
  // memcmp on every SIMD arm at 1 and 4 workers, every case summed on
  // out_px itself (out_px <= m): the production point (kdim 29 on 64),
  // radix-2 grids, a band that is every row (kdim = out_px), grids with no
  // stage pair (1, 2) and with one pair that is both the first and the
  // last column pass (4), and kernels whose every third row is all zeros;
  // spectra hold -0.0 entries.
  Rng rng = make_rng(74);
  const EngineCase cases[] = {{29, 64, false}, {9, 16, false},
                              {9, 32, false},  {16, 16, false},
                              {13, 13, false}, {1, 1, false},
                              {2, 2, false},   {3, 4, false},
                              {3, 4, true},    {9, 16, true}};
  test::ArmGuard guard;
  for (const EngineCase& c : cases) {
    const EngineInputs in = engine_inputs(c.kdim, c.zero_rows, rng);
    std::vector<Grid<double>> want;
    simd::force_arm(simd::Arm::kScalar);
    for (const Grid<cd>& sp : in.spectra) {
      want.push_back(strip_engine_aerial(in.kernels, sp, c.out_px));
    }
    const AerialEngine engine(in.kernels, c.out_px);
    ASSERT_EQ(engine.sim_px(), c.out_px) << case_label(c);
    expect_batch_on_every_arm(engine, in.spectra, want, case_label(c));
  }
}

// Cases with m < out_px: the engine sums on m and resamples.  The
// production point (kdim 29 at 128), Bluestein outputs (45, 97), odd
// outputs one above m (33), an even kdim (16: band 31, m 32) and kdim 1
// (band 1, m 1: a constant image).
const EngineCase kResampledCases[] = {
    {29, 128, false}, {29, 128, true}, {13, 45, false}, {13, 45, true},
    {29, 97, false},  {13, 33, false}, {9, 33, false},  {16, 64, false},
    {16, 64, true},   {1, 2, false}};

TEST(AerialEngine, ResampledOutputIsSimGridEngineThroughBandResample) {
  // The pin by composition: AerialEngine(k, out_px) is, by memcmp,
  // band_resample(AerialEngine(k, m).aerial(sp), 2*kdim - 1, out_px), the
  // reference computed on the scalar arm, the engine on every arm at 1 and
  // 4 workers.  With the BitIdenticalTo* pins at out_px = m this ties the
  // resampled path to the legacy loop's arithmetic at m.
  Rng rng = make_rng(83);
  test::ArmGuard guard;
  for (const EngineCase& c : kResampledCases) {
    const EngineInputs in = engine_inputs(c.kdim, c.zero_rows, rng);
    const int m = expected_sim_px(c.kdim, c.out_px);
    ASSERT_LT(m, c.out_px) << case_label(c);
    const AerialEngine engine(in.kernels, c.out_px);
    ASSERT_EQ(engine.sim_px(), m) << case_label(c);
    simd::force_arm(simd::Arm::kScalar);
    const AerialEngine sim(in.kernels, m);
    ASSERT_EQ(sim.sim_px(), m);
    std::vector<Grid<double>> want;
    for (const Grid<cd>& sp : in.spectra) {
      want.push_back(band_resample(sim.aerial(sp), 2 * c.kdim - 1, c.out_px));
    }
    expect_batch_on_every_arm(engine, in.spectra, want, case_label(c));
  }
}

TEST(AerialEngine, ResampledOutputWithinRoundingOfLegacy) {
  // The intensity's band, 2*kdim - 1 frequencies, is alias-free on m, so
  // its m samples fix it and the resample is exact up to rounding; the
  // legacy loop computes the same samples directly on out_px.  1e-13 of
  // the peak is ~500 double ulps of headroom over both paths' rounding.
  Rng rng = make_rng(84);
  for (const EngineCase& c : kResampledCases) {
    const EngineInputs in = engine_inputs(c.kdim, c.zero_rows, rng);
    const AerialEngine engine(in.kernels, c.out_px);
    for (const Grid<cd>& sp : in.spectra) {
      const Grid<double> got = engine.aerial(sp);
      const Grid<double> want = legacy_socs_aerial(in.kernels, sp, c.out_px);
      ASSERT_TRUE(got.same_shape(want));
      double peak = 0.0, err = 0.0;
      for (std::size_t a = 0; a < want.size(); ++a) {
        peak = std::max(peak, std::abs(want[a]));
        err = std::max(err, std::abs(got[a] - want[a]));
      }
      EXPECT_LE(err, 1e-13 * peak) << case_label(c);
    }
  }
}

TEST(AerialEngine, SocsAerialStillMatchesLegacy) {
  Rng rng = make_rng(72);
  const std::vector<Grid<cd>> kernels = random_kernels(10, 11, rng);
  const Grid<cd> spectrum = random_spectrum(11, rng);
  EXPECT_EQ(socs_aerial(kernels, spectrum, 24),
            legacy_socs_aerial(kernels, spectrum, 24));
}

TEST(AerialEngine, BatchBitIdenticalToSingle) {
  Rng rng = make_rng(73);
  const std::vector<Grid<cd>> kernels = random_kernels(20, 13, rng);
  const AerialEngine engine(kernels, 32);
  std::vector<Grid<cd>> spectra;
  for (int i = 0; i < 5; ++i) spectra.push_back(random_spectrum(21, rng));
  const std::vector<Grid<double>> batch = engine.aerial_batch(spectra);
  ASSERT_EQ(batch.size(), spectra.size());
  for (std::size_t i = 0; i < spectra.size(); ++i) {
    EXPECT_EQ(batch[i], engine.aerial(spectra[i])) << "mask " << i;
    EXPECT_EQ(batch[i], socs_aerial(kernels, spectra[i], 32)) << "mask " << i;
  }
}

void expect_concurrent_batches_race_free(const AerialEngine& engine,
                                         Rng& rng) {
  std::vector<std::vector<Grid<cd>>> inputs;
  std::vector<std::vector<Grid<double>>> expected;
  for (int t = 0; t < 4; ++t) {
    std::vector<Grid<cd>> spectra;
    for (int i = 0; i < 3; ++i) spectra.push_back(random_spectrum(9, rng));
    expected.push_back(engine.aerial_batch(spectra));
    inputs.push_back(std::move(spectra));
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<Grid<double>>> got(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        got[static_cast<std::size_t>(t)] =
            engine.aerial_batch(inputs[static_cast<std::size_t>(t)]);
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < 4; ++t) {
      ASSERT_EQ(got[static_cast<std::size_t>(t)].size(),
                expected[static_cast<std::size_t>(t)].size());
      for (std::size_t i = 0; i < expected[static_cast<std::size_t>(t)].size();
           ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(t)][i],
                  expected[static_cast<std::size_t>(t)][i])
            << "thread " << t << " mask " << i
            << " out_px=" << engine.out_px();
      }
    }
  }
}

TEST(AerialEngine, ConcurrentBatchesAreRaceFree) {
  Rng rng = make_rng(74);
  const std::vector<Grid<cd>> kernels = random_kernels(17, 9, rng);
  // Summed on out_px (20), and summed on m = 32 then resampled (40).
  for (const int out_px : {20, 40}) {
    expect_concurrent_batches_race_free(AerialEngine(kernels, out_px), rng);
  }
}

TEST(AerialEngine, FastLithoBatchMatchesSingleMaskCalls) {
  Rng rng = make_rng(75);
  const FastLitho fast(random_kernels(12, 13, rng));
  std::vector<Grid<double>> masks;
  for (int i = 0; i < 4; ++i) masks.push_back(random_mask(64, 64, rng));
  const std::vector<Grid<double>> batch = fast.aerial_batch(masks, 32);
  ASSERT_EQ(batch.size(), masks.size());
  for (std::size_t i = 0; i < masks.size(); ++i) {
    EXPECT_EQ(batch[i], fast.aerial_from_mask(masks[i], 32)) << "mask " << i;
  }
}

TEST(FastLitho, ImagingShapeBatchMatchesSingleMaskCalls) {
  // The imaging workload's shape: rank-24 kdim-29 kernels exported for a
  // 1 um tile, 1 nm/px B1/B2m/B2v rasters, out_px 128 (summed on 64, then
  // resampled).  Every batched tile must be memcmp-equal to its
  // single-mask call, at 1 and 4 workers.
  const NithoModel model(NithoConfig{}, 1024, 193.0, 1.35);
  ASSERT_EQ(model.kernel_dim(), 29);
  const FastLitho fast = FastLitho::from_model(model);
  Rng rng = make_rng(85);
  std::vector<Grid<double>> masks;
  for (const DatasetKind kind :
       {DatasetKind::B1, DatasetKind::B2m, DatasetKind::B2v}) {
    for (int i = 0; i < 2; ++i) {
      masks.push_back(rasterize(make_layout(kind, 1024, rng), 1));
    }
  }
  std::vector<Grid<double>> single;
  for (const Grid<double>& m : masks) {
    single.push_back(fast.aerial_from_mask(m, 128));
  }
  for (const int workers : {1, 4}) {
    set_parallel_workers(workers);
    const std::vector<Grid<double>> batch = fast.aerial_batch(masks, 128);
    ASSERT_EQ(batch.size(), masks.size());
    for (std::size_t i = 0; i < masks.size(); ++i) {
      EXPECT_TRUE(bit_equal(batch[i], single[i]))
          << "mask " << i << " workers=" << workers;
    }
  }
  set_parallel_workers(0);
}

TEST(AerialEngine, RejectsBadConfigurations) {
  Rng rng = make_rng(76);
  EXPECT_THROW(AerialEngine(std::vector<Grid<cd>>{}, 16), check_error);
  const std::vector<Grid<cd>> kernels = random_kernels(3, 9, rng);
  EXPECT_THROW(AerialEngine(kernels, 8), check_error);  // out_px < kdim
  const AerialEngine engine(kernels, 16);
  EXPECT_THROW(engine.aerial(random_spectrum(7, rng)), check_error);
}

TEST(AerialEngine, EmptyBatchReturnsEmpty) {
  Rng rng = make_rng(77);
  const AerialEngine engine(random_kernels(3, 9, rng), 16);
  EXPECT_TRUE(engine.aerial_batch(std::vector<Grid<cd>>{}).empty());
}

TEST(FastLitho, SharedKernelSiblingsMatchBitForBit) {
  Rng rng = make_rng(79);
  FastLitho owner(random_kernels(8, 13, rng));
  // A sibling built from kernels_shared() shares the arrays (no copy).
  FastLitho sibling(owner.kernels_shared(), owner.resist_threshold());
  EXPECT_EQ(&sibling.kernels(), &owner.kernels());
  const Grid<double> mask = random_mask(64, 64, rng);
  EXPECT_EQ(sibling.aerial_from_mask(mask, 32), owner.aerial_from_mask(mask, 32));
  EXPECT_EQ(sibling.resist_from_mask(mask, 32), owner.resist_from_mask(mask, 32));
}

TEST(FastLitho, MaskPointerBatchMatchesOwningBatch) {
  Rng rng = make_rng(80);
  const FastLitho fast(random_kernels(9, 9, rng));
  std::vector<Grid<double>> masks;
  for (int i = 0; i < 3; ++i) masks.push_back(random_mask(48, 48, rng));
  std::vector<const Grid<double>*> ptrs;
  for (const Grid<double>& m : masks) ptrs.push_back(&m);
  EXPECT_EQ(fast.aerial_batch(ptrs, 24), fast.aerial_batch(masks, 24));
  std::vector<const Grid<double>*> with_null = ptrs;
  with_null.push_back(nullptr);
  EXPECT_THROW(fast.aerial_batch(with_null, 24), check_error);
}

TEST(FastLitho, ResistFromMaskMatchesThresholdedAerial) {
  Rng rng = make_rng(81);
  const std::vector<Grid<cd>> kernels = random_kernels(7, 13, rng);
  const Grid<double> mask = random_mask(64, 64, rng);
  for (const int out_px : {32, 33}) {  // even and odd output grids
    const FastLitho fast{std::vector<Grid<cd>>(kernels)};
    const Grid<double> aerial = fast.aerial_from_mask(mask, out_px);
    const Grid<double> resist = fast.resist_from_mask(mask, out_px);
    ASSERT_EQ(resist.rows(), out_px);
    ASSERT_EQ(resist.cols(), out_px);
    for (std::size_t a = 0; a < resist.size(); ++a) {
      EXPECT_TRUE(resist[a] == 0.0 || resist[a] == 1.0);
      EXPECT_EQ(resist[a], aerial[a] >= fast.resist_threshold() ? 1.0 : 0.0);
    }
  }
}

TEST(FastLitho, ResistThresholdBoundaryIsInclusive) {
  Rng rng = make_rng(82);
  const std::vector<Grid<cd>> kernels = random_kernels(5, 9, rng);
  const Grid<double> mask = random_mask(48, 48, rng);
  const Grid<double> aerial =
      FastLitho{std::vector<Grid<cd>>(kernels)}.aerial_from_mask(mask, 24);
  // Pin the threshold to an exact intensity value: >= keeps that pixel lit.
  const double pivot = aerial(7, 11);
  const FastLitho at{std::vector<Grid<cd>>(kernels), pivot};
  EXPECT_EQ(at.resist_threshold(), pivot);
  EXPECT_EQ(at.resist_from_mask(mask, 24)(7, 11), 1.0);
  // An infinitesimally higher threshold flips exactly the boundary pixels.
  const FastLitho above{
      std::vector<Grid<cd>>(kernels),
      std::nextafter(pivot, std::numeric_limits<double>::infinity())};
  EXPECT_EQ(above.resist_from_mask(mask, 24)(7, 11), 0.0);
  // Degenerate thresholds: everything clears / nothing does.
  const FastLitho zero{std::vector<Grid<cd>>(kernels), 0.0};
  const Grid<double> all_on = zero.resist_from_mask(mask, 24);
  for (std::size_t a = 0; a < all_on.size(); ++a) EXPECT_EQ(all_on[a], 1.0);
  const FastLitho huge{std::vector<Grid<cd>>(kernels), 1e300};
  const Grid<double> all_off = huge.resist_from_mask(mask, 24);
  for (std::size_t a = 0; a < all_off.size(); ++a) EXPECT_EQ(all_off[a], 0.0);
}

TEST(ReduceOrdered, SkipsEmptyPartialsAndKeepsOrder) {
  std::vector<Grid<double>> partials;
  partials.emplace_back(2, 2, 1.0);
  partials.emplace_back();  // chunk that contributed nothing
  partials.emplace_back(2, 2, 2.5);
  const Grid<double> sum =
      reduce_ordered(partials.data(), partials.size(), 2);
  for (std::size_t a = 0; a < sum.size(); ++a) EXPECT_EQ(sum[a], 3.5);
}

}  // namespace
}  // namespace nitho
