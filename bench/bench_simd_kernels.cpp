// SIMD kernel microbench: same-binary scalar-vs-vector ratios for the three
// gated hot loops — the engine's fused crop/multiply/scatter + |.|^2
// epilogue (its last column stage adding into the accumulator), the
// radix-2 butterfly transform (paired stages plus an odd last stage,
// DESIGN.md §13.2), and the dense GEMM microkernel —
// plus informational rows for the row-major pruned-inverse column passes
// the imaging, train and opc workloads run, the Bluestein path and the
// float abs2 accumulate.  Ratios come from interleaved best-of-reps runs of
// the *identical* workload under force_arm(), so everything except the
// dispatch arm cancels out; bit-identity across arms is pinned by
// tests/test_simd.cpp, this file only measures speed.
//
// Writes bench_out/simd_kernels.csv; gated against
// bench/baselines/simd_kernels.csv by bench/check_baselines.py (floor:
// vs_scalar >= 1.2 on fused_scatter, butterfly_f32 and gemm_nn_dense).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "common.hpp"
#include "common/aligned.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "fft/fft.hpp"
#include "fft/pruned.hpp"
#include "io/csv.hpp"
#include "nn/gemm.hpp"

using namespace nitho;
using namespace nitho::bench;

namespace {

// Best-of-`reps` nanoseconds per call, interleaving the two arms outside so
// thermal / scheduling drift hits both equally.
double measure_ns(const std::function<void()>& fn, int iters, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() * 1e9 / iters);
  }
  return best;
}

struct Workload {
  const char* name;
  std::function<void()> fn;
  int iters;
};

Rng bench_rng(std::uint64_t salt) { return Rng(0xBEEF2023ull + salt); }

template <typename C>
std::vector<C> random_cvec(std::int64_t n, Rng& rng) {
  std::vector<C> v(static_cast<std::size_t>(n));
  for (auto& z : v) {
    z = C(static_cast<typename C::value_type>(rng.normal()),
          static_cast<typename C::value_type>(rng.normal()));
  }
  return v;
}

std::vector<float> random_fvec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const char* arm = log_simd_arm();
  const int reps = flags.get_int("reps", 7);

  // --- fused scatter: the engine's per-kernel pass minus its inner FFT ---
  // (kdim 29 = the paper-scale Eq.-10 kernel support; out 128.)  The band
  // rows' kernel x spectrum products scattered into the field plane, then
  // the intensity epilogue, which rides on the last inverse column stage
  // (half 64, with its 1/n and s^2): that stage adds |.|^2 into the
  // accumulator instead of storing the field.
  const int kdim = 29, out = 128;
  Rng rng = bench_rng(1);
  const auto kern = random_cvec<cd>(kdim * kdim, rng);
  const auto spec = random_cvec<cd>(kdim * kdim, rng);
  aligned_vector<cd> field(static_cast<std::size_t>(out) * out);
  aligned_vector<double> local(static_cast<std::size_t>(out) * out, 0.0);
  std::vector<cd> last_tw(static_cast<std::size_t>(out / 2));
  for (int k = 0; k < out / 2; ++k) {
    last_tw[static_cast<std::size_t>(k)] = std::polar(1.0, 2.0 * kPi * k / out);
  }
  const double last_scale[2] = {1.0 / out, static_cast<double>(out) * out};
  const int seg_start = 93;  // a wrapping scatter start, like (e0+sh) % out
  const int seg1 = std::min(kdim, out - seg_start);
  Workload fused{"fused_scatter",
                 [&] {
                   std::fill(field.begin(), field.end(), cd(0.0, 0.0));
                   for (int r = 0; r < kdim; ++r) {
                     const cd* krow = kern.data() + r * kdim;
                     const cd* srow = spec.data() + r * kdim;
                     cd* frow = field.data() +
                                static_cast<std::size_t>((seg_start + r) % out) * out;
                     simd::cmul(frow + seg_start, krow, srow, seg1);
                     simd::cmul(frow, krow + seg1, srow + seg1, kdim - seg1);
                   }
                   simd::fft_rows_stage(field.data(), out, out, out / 2,
                                        last_tw.data(), last_scale,
                                        local.data());
                 },
                 200};

  // --- radix-2 butterflies: whole 512-point transforms -------------------
  // The input is re-copied each call so values stay finite (repeated
  // unnormalized transforms would blow up into the slow non-finite paths).
  const auto sig_d = random_cvec<cd>(512, rng);
  const auto sig_f = random_cvec<cf>(512, rng);
  aligned_vector<cd> buf_d(512);
  aligned_vector<cf> buf_f(512);
  const FftPlan<double>& plan_d = fft_plan_d(512);
  const FftPlan<float>& plan_f = fft_plan_f(512);
  Workload bfly64{"butterfly_f64",
                  [&] {
                    std::memcpy(buf_d.data(), sig_d.data(), 512 * sizeof(cd));
                    plan_d.forward(buf_d.data());
                  },
                  500};
  Workload bfly32{"butterfly_f32",
                  [&] {
                    std::memcpy(buf_f.data(), sig_f.data(), 512 * sizeof(cf));
                    plan_f.forward(buf_f.data());
                  },
                  500};

  // --- hot-path column passes: one pruned-inverse field plane -----------
  // The shapes band_inverse / band_intensity (fft/pruned.hpp) actually
  // run: a kdim-29 band of row-transformed rows read in place through the
  // row table (the other rows are null), the whole-plane column pass with
  // the s^2 rescale folded into its last pass — the train/opc ops' float
  // s = 64 field plane, and the imaging engine's double s = 128 plane whose
  // last pass adds |.|^2 into an accumulator.
  const int cols_f_n = 64, cols_d_n = 128;
  const auto cols_sig_f = random_cvec<cf>(kdim * cols_f_n, rng);
  const auto cols_sig_d = random_cvec<cd>(kdim * cols_d_n, rng);
  aligned_vector<cf> cols_f(static_cast<std::size_t>(cols_f_n) * cols_f_n);
  aligned_vector<cd> cols_d(static_cast<std::size_t>(cols_d_n) * cols_d_n);
  aligned_vector<double> cols_acc(cols_d.size(), 0.0);
  const FftPlan<float>& cols_plan_f = fft_plan_f(cols_f_n);
  const FftPlan<double>& cols_plan_d = fft_plan_d(cols_d_n);
  // Band row a at the bit-reversed position of its grid row.
  const auto band_table = [kdim](const auto& plan, const auto* sig) {
    const int s = plan.size();
    std::vector<decltype(sig)> table(static_cast<std::size_t>(s), nullptr);
    for (int a = 0; a < kdim; ++a) {
      table[plan.bitrev_table()[centered_to_dft_index(a, kdim, s)]] =
          sig + static_cast<std::ptrdiff_t>(a) * s;
    }
    return table;
  };
  const auto table_f = band_table(cols_plan_f, cols_sig_f.data());
  const auto table_d = band_table(cols_plan_d, cols_sig_d.data());
  Workload cols32{"columns_f32_64",
                  [&] {
                    cols_plan_f.inverse_columns_gather(
                        table_f.data(), cols_f.data(), cols_f_n, nullptr,
                        static_cast<float>(cols_f_n * cols_f_n));
                  },
                  200};
  Workload cols64{"columns_f64_128",
                  [&] {
                    cols_plan_d.intensity_columns_gather(
                        table_d.data(), cols_d.data(), cols_d_n, nullptr,
                        static_cast<double>(cols_d_n * cols_d_n),
                        cols_acc.data());
                  },
                  50};

  // --- Bluestein (prime 509): chirp + convolution over the SIMD stages ---
  const auto sig_b = random_cvec<cd>(509, rng);
  aligned_vector<cd> buf_b(509);
  const FftPlan<double>& plan_b = fft_plan_d(509);
  aligned_vector<cd> scratch_b(static_cast<std::size_t>(plan_b.scratch_size()));
  Workload bluestein{"bluestein_f64",
                     [&] {
                       std::memcpy(buf_b.data(), sig_b.data(),
                                   509 * sizeof(cd));
                       plan_b.forward(buf_b.data(), scratch_b.data());
                     },
                     200};

  // --- dense GEMM microkernel (CMLP-shaped, serial path) -----------------
  const std::int64_t gm = 48, gn = 48, gk = 48;
  const auto ga = random_fvec(gm * gk, rng);
  const auto gb = random_fvec(gk * gn, rng);
  std::vector<float> gc(static_cast<std::size_t>(gm * gn));
  Workload gemm_nn{"gemm_nn_dense",
                   [&] {
                     nn::gemm_dense(gm, gn, gk, ga.data(), gk, 1, gb.data(),
                                    gn, gc.data(), gn, false);
                   },
                   400};

  // --- float abs2 accumulate (training intensity pass) -------------------
  const auto plane_e = random_fvec(2 * 64 * 64, rng);
  std::vector<float> plane_acc(64 * 64);
  Workload abs2{"abs2_accum_f32",
                [&] {
                  std::fill(plane_acc.begin(), plane_acc.end(), 0.0f);
                  simd::abs2_accum(plane_acc.data(), plane_e.data(), 64 * 64);
                },
                2000};

  const Workload* workloads[] = {&fused,   &bfly64,  &bfly32,
                                 &cols32,  &cols64,  &bluestein,
                                 &gemm_nn, &abs2};

  std::printf("== SIMD kernel microbench (best of %d reps) ==\n\n", reps);
  TablePrinter tp({"kernel", "scalar ns", "simd ns", "vs_scalar"}, 14);
  CsvWriter csv(out_dir() + "/simd_kernels.csv",
                {"kernel", "scalar_ns", "simd_ns", "vs_scalar", "arm"});
  const simd::Arm best = simd::detected_arm();
  for (const Workload* w : workloads) {
    // Warm caches and the dispatch atomic under both arms first.
    simd::force_arm(simd::Arm::kScalar);
    w->fn();
    simd::force_arm(best);
    w->fn();
    double scalar_ns = 1e30, simd_ns = 1e30;
    for (int r = 0; r < reps; ++r) {
      simd::force_arm(simd::Arm::kScalar);
      scalar_ns = std::min(scalar_ns, measure_ns(w->fn, w->iters, 1));
      simd::force_arm(best);
      simd_ns = std::min(simd_ns, measure_ns(w->fn, w->iters, 1));
    }
    simd::force_arm(best);
    const double ratio = scalar_ns / simd_ns;
    tp.row({w->name, fmt(scalar_ns, 0), fmt(simd_ns, 0), fmt(ratio, 2)});
    csv.row({w->name, fmt(scalar_ns, 0), fmt(simd_ns, 0), fmt(ratio, 2),
             arm});
  }
  tp.rule();
  std::printf(
      "\nGate (check_baselines.py): vs_scalar >= 1.2 on fused_scatter, "
      "butterfly_f32, gemm_nn_dense.\n");
  return 0;
}
