// imaging: offline fast lithography (paper Fig. 5).  One operation is one
// FastLitho::aerial_batch call on a batch of 1 um tiles plus the resist
// threshold of every tile, issued closed-loop by one caller.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fft/spectral.hpp"
#include "harness.hpp"
#include "layout/datasets.hpp"
#include "layout/raster.hpp"
#include "litho/engine.hpp"
#include "litho/golden.hpp"
#include "metrics/metrics.hpp"
#include "nitho/fast_litho.hpp"
#include "opc/engine.hpp"

namespace perfbench {

using nitho::cd;
using nitho::Grid;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Scale {
  int tile_nm;   ///< 1 nm/px rasters, so also the raster side
  int pool;      ///< distinct masks, cycled
  int batch;     ///< tiles per aerial_batch call
  int out_px;
  int rank;      ///< golden kernels kept (Nitho's export format)
  int epe_tiles; ///< B1 tiles scored for epe_px (the pool's first)
  int setups;
  int min_ops;
};

Scale scale_for(bool tiny) {
  if (tiny) return {256, 6, 3, 32, 24, 6, 2, 5};
  return {1024, 24, 8, 128, 24, 64, 3, 300};
}

struct State {
  std::unique_ptr<nitho::GoldenEngine> golden;
  std::unique_ptr<nitho::FastLitho> litho;
  std::vector<Grid<double>> pool;
  double optics_s = 0.0;
};

/// Call c's batch is consecutive pool masks, cycling; tile j of it is
/// pool mask pool_index(c, j).
std::size_t pool_index(const State& st, const Scale& s, std::int64_t c, int j) {
  return static_cast<std::size_t>((c * s.batch + j) %
                                  static_cast<std::int64_t>(st.pool.size()));
}

std::vector<const Grid<double>*> batch_of(const State& st, const Scale& s,
                                          std::int64_t c) {
  std::vector<const Grid<double>*> ptrs;
  for (int j = 0; j < s.batch; ++j) {
    ptrs.push_back(&st.pool[pool_index(st, s, c, j)]);
  }
  return ptrs;
}

std::unique_ptr<State> set_up(const Scale& s, std::uint64_t seed) {
  auto st = std::make_unique<State>();
  nitho::LithoConfig lc;
  lc.tile_nm = s.tile_nm;
  lc.raster_px = s.tile_nm;
  const auto t0 = Clock::now();
  st->golden = std::make_unique<nitho::GoldenEngine>(lc);
  st->optics_s = seconds_since(t0);
  const auto& all = st->golden->kernels().kernels;
  const auto keep = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(static_cast<std::size_t>(s.rank), all.size()));
  st->litho = std::make_unique<nitho::FastLitho>(
      std::vector<Grid<cd>>(all.begin(), all.begin() + keep),
      lc.resist.threshold);
  nitho::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x1a);
  const nitho::DatasetKind kinds[3] = {nitho::DatasetKind::B1,
                                       nitho::DatasetKind::B2m,
                                       nitho::DatasetKind::B2v};
  for (int i = 0; i < s.pool; ++i) {
    st->pool.push_back(
        nitho::rasterize(nitho::make_layout(kinds[i % 3], s.tile_nm, rng), 1));
  }
  // Warm-up: FFT plans, the out_px engine and its workspaces.
  (void)st->litho->aerial_batch(batch_of(*st, s, 0), s.out_px);
  return st;
}

bool finite(const Grid<double>& g) {
  for (const double v : g) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool bit_equal(const Grid<double>& a, const Grid<double>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Nominal op counts (labelled as computed in the ledger).
double fft_crop_flops(int n, int crop) {
  // Real rows transformed in conjugate-symmetric pairs, then only the
  // crop's columns.
  return 5.0 * n * std::log2(n) * (n / 2.0 + crop);
}
double engine_flops(int masks, int rank, int kdim, int out_px) {
  // Per (mask, kernel): the kernel multiply (6 flops per complex product),
  // the pruned 2-D inverse FFT (kdim band rows, then every column) and the
  // |.|^2 accumulate.
  const double s = out_px;
  return static_cast<double>(masks) * rank *
         (6.0 * kdim * kdim + 5.0 * s * std::log2(s) * (kdim + s) +
          3.0 * s * s);
}

}  // namespace

Result run_imaging(const Args& args) {
  const Scale s = scale_for(args.tiny);
  Result r;
  std::unique_ptr<State> st;
  const std::vector<double> setups =
      time_setups(args.trace ? 1 : s.setups, [&] {
        st.reset();
        st = set_up(s, args.seed);
      });
  const nitho::FastLitho& litho = *st->litho;
  const double threshold = litho.resist_threshold();

  // Verification data, outside the set-up time: the direct per-mask result
  // of every pool mask, and the full-rank golden aerials for psnr_db.
  std::vector<Grid<double>> ref;
  for (const Grid<double>& m : st->pool) {
    ref.push_back(litho.aerial_from_mask(m, s.out_px));
  }
  double psnr_sum = 0.0;
  {
    const nitho::FastLitho full(st->golden->kernels().kernels, threshold);
    const std::vector<Grid<double>> golden =
        full.aerial_batch(st->pool, s.out_px);
    for (std::size_t i = 0; i < st->pool.size(); ++i) {
      psnr_sum += nitho::psnr(golden[i], ref[i]);
    }
  }
  // Edge placement of the print against the drawn pattern, over B1 tiles
  // (the pool's, then more from the same seed).  In the thin-wire (B2m) and
  // via (B2v) families many features do not print at the constant
  // threshold, and the scan-line rule scores a missing feature at the whole
  // line length, which would swamp the edge error.
  double epe_sum = 0.0;
  nitho::Rng extra_rng(args.seed * 0x9E3779B97F4A7C15ull + 0x1b);
  for (int i = 0; i < s.epe_tiles; ++i) {
    const bool in_pool = i < (s.pool + 2) / 3;
    const std::size_t at = static_cast<std::size_t>(3 * i);
    const Grid<double> extra =
        in_pool ? Grid<double>()
                : nitho::rasterize(nitho::make_b1_layout(s.tile_nm, extra_rng),
                                   1);
    const Grid<double>& m = in_pool ? st->pool[at] : extra;
    const Grid<double> printed = nitho::binarize(
        in_pool ? ref[at] : litho.aerial_from_mask(m, s.out_px), threshold);
    epe_sum += nitho::opc::mean_edge_placement_error(
        printed, nitho::binarize(
                     nitho::downsample_area(m, s.tile_nm / s.out_px), 0.5));
  }
  const double n_pool = static_cast<double>(st->pool.size());

  std::int64_t call = 0;
  std::vector<Grid<double>> aerials;
  // One operation: the batched aerial call plus the resist of every tile.
  const auto op = [&] {
    aerials = litho.aerial_batch(batch_of(*st, s, call), s.out_px);
    for (const Grid<double>& a : aerials) {
      (void)nitho::binarize(a, threshold);
    }
  };
  // Every tile must be finite and bit-equal to aerial_from_mask.
  const auto check_call = [&] {
    for (int j = 0; j < s.batch; ++j) {
      const Grid<double>& a = aerials[static_cast<std::size_t>(j)];
      ++r.attempted;
      if (!finite(a) || !bit_equal(a, ref[pool_index(*st, s, call, j)])) {
        r.fail();
      }
    }
    ++call;
  };

  if (!args.trace) {
    TimedPhase tp;
    const auto t0 = Clock::now();
    while (static_cast<int>(tp.latency_ms.size()) < s.min_ops ||
           seconds_since(t0) < args.seconds) {
      const auto t = Clock::now();
      op();
      tp.latency_ms.push_back(ms_since(t));
      const std::int64_t failed = r.failed;
      check_call();
      tp.done(seconds_since(t0), s.batch - static_cast<double>(r.failed - failed));
    }
    tp.wall_s = seconds_since(t0);
    add_end_to_end(r, tp, setups, psnr_sum / n_pool, epe_sum / s.epe_tiles);
    r.notes.push_back("op = one aerial_batch call of " +
                      std::to_string(s.batch) + " tiles + resist; throughput "
                      "counts tiles; pool of " + std::to_string(s.pool) +
                      " masks repeats every " +
                      std::to_string(s.pool / s.batch) + " calls");
    return r;
  }

  // Traced run: the same operation, then the same batch through each
  // layer's public entry point, timed from here.
  ledger_add(r, "optics.setup_s", "s", st->optics_s, kNaN,
             "GoldenEngine construction (one set-up)");
  const auto engine =
      std::make_shared<nitho::AerialEngine>(litho.kernels_shared(), s.out_px);
  const int n_px = s.tile_nm;
  const double inv_n2 = 1.0 / (static_cast<double>(n_px) * n_px);
  std::vector<double> crop_call_ms, crop_phase_ms, engine_ms, resist_ms,
      fast_ms;
  const auto traced = [&]() -> double {
    const std::vector<const Grid<double>*> masks = batch_of(*st, s, call);
    const auto t_op = Clock::now();
    aerials = litho.aerial_batch(masks, s.out_px);
    fast_ms.push_back(ms_since(t_op));
    for (const Grid<double>& a : aerials) (void)nitho::binarize(a, threshold);
    const double op_ms = ms_since(t_op);

    // Layer calls on the same batch, in the order FastLitho runs them.
    std::vector<Grid<cd>> spectra(masks.size());
    std::vector<double> per_call(masks.size());
    const auto t_crop = Clock::now();
    nitho::parallel_for(static_cast<std::int64_t>(masks.size()),
                        [&](std::int64_t i) {
                          const auto t = Clock::now();
                          auto& sp = spectra[static_cast<std::size_t>(i)];
                          sp = nitho::fft2_crop_centered(
                              *masks[static_cast<std::size_t>(i)],
                              litho.kernel_dim());
                          per_call[static_cast<std::size_t>(i)] = ms_since(t);
                          for (auto& z : sp) z *= inv_n2;
                        });
    crop_phase_ms.push_back(ms_since(t_crop));
    crop_call_ms.insert(crop_call_ms.end(), per_call.begin(), per_call.end());
    const auto t_eng = Clock::now();
    const std::vector<Grid<double>> layered = engine->aerial_batch(spectra);
    engine_ms.push_back(ms_since(t_eng));
    double resist = 0.0;
    for (const Grid<double>& a : layered) {
      const auto t = Clock::now();
      (void)nitho::binarize(a, threshold);
      resist += ms_since(t);
    }
    resist_ms.push_back(resist);
    // The layered path must reproduce the operation bit for bit.
    for (std::size_t i = 0; i < layered.size(); ++i) {
      if (!bit_equal(layered[i], aerials[i])) r.fail();
    }
    check_call();
    return op_ms;
  };
  const auto collect = [&](double op_ms) {
    const double crop_ms = mean(crop_call_ms);
    const double eng_ms = mean(engine_ms);
    const double res_ms = mean(resist_ms);
    const double phase_ms = mean(crop_phase_ms);
    const int rank = litho.rank();
    ledger_add(r, "fft.crop_ms", "ms", crop_ms, 100.0 * phase_ms / op_ms,
               "per mask call; share = the batch's crop phase");
    ledger_add(r, "fft.crop_gflops", "GFLOP/s",
               fft_crop_flops(n_px, litho.kernel_dim()) / crop_ms / 1e6, kNaN,
               "computed: 5 N log2 N (N/2 + crop) per call");
    ledger_add(r, "litho.engine_ms", "ms", eng_ms, 100.0 * eng_ms / op_ms,
               "AerialEngine::aerial_batch per call");
    ledger_add(r, "litho.engine_gflops", "GFLOP/s",
               engine_flops(s.batch, rank, litho.kernel_dim(), s.out_px) /
                   eng_ms / 1e6,
               kNaN, "computed: cmul + pruned inverse FFT + |.|^2");
    ledger_add(r, "litho.resist_ms", "ms", res_ms / s.batch,
               100.0 * res_ms / op_ms, "threshold per tile");
    ledger_add(r, "nitho.fast_litho_ms", "ms", mean(fast_ms),
               100.0 * mean(fast_ms) / op_ms, "FastLitho::aerial_batch");
    ledger_add(r, "unattributed_pct", "%",
               100.0 * (op_ms - phase_ms - eng_ms - res_ms) / op_ms, kNaN,
               "op - (crop phase + engine + resist)");
    crop_call_ms.clear();
    crop_phase_ms.clear();
    engine_ms.clear();
    resist_ms.clear();
    fast_ms.clear();
  };
  const double block_s = args.seconds / 12.0;
  traced_repeats(
      r, block_s, args.tiny ? 2 : 5, args.tiny ? 2 : 5, 2,
      [&] {
        op();
        check_call();
      },
      traced, collect);
  return r;
}

}  // namespace perfbench
