// Tests for the SIMD dispatch layer (common/simd.hpp): every vector arm the
// build carries must be *bit-identical* to the scalar arm on every kernel —
// across odd/even lengths, unaligned pointers, prime Bluestein FFT sizes,
// odd/even engine output grids, and concurrent batched callers (the tsan
// preset runs this suite).  Also pins the aligned-buffer contract
// (common/aligned.hpp, DESIGN.md §13.3).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/simd.hpp"
#include "fft/fft.hpp"
#include "litho/engine.hpp"
#include "nn/gemm.hpp"
#include "support/gemm_ref.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

using test::ArmGuard;
using test::make_rng;
using test::random_kernels;
using test::random_spectrum;
using test::vector_arms;

template <typename T>
::testing::AssertionResult bits_equal(const std::vector<T>& a,
                                      const std::vector<T>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) != 0) {
    return ::testing::AssertionFailure() << "bit mismatch";
  }
  return ::testing::AssertionSuccess();
}

template <typename C>
std::vector<C> random_cvec(int n, Rng& rng) {
  std::vector<C> v(static_cast<std::size_t>(n));
  for (auto& z : v) {
    z = C(static_cast<typename C::value_type>(rng.normal()),
          static_cast<typename C::value_type>(rng.normal()));
  }
  return v;
}

std::vector<float> random_fvec(int n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Overwrites about a third of the components with +Inf, -Inf, NaN or -0.0,
// the inputs on which complex-multiply recovery or a sign slip would show.
template <typename C>
void sprinkle_specials(std::vector<C>& v, Rng& rng) {
  using R = typename C::value_type;
  const R specials[] = {std::numeric_limits<R>::infinity(),
                        -std::numeric_limits<R>::infinity(),
                        std::numeric_limits<R>::quiet_NaN(), R(-0.0)};
  for (auto& z : v) {
    R re = z.real(), im = z.imag();
    if (rng.bernoulli(0.3)) re = specials[rng.randint(0, 3)];
    if (rng.bernoulli(0.3)) im = specials[rng.randint(0, 3)];
    z = C(re, im);
  }
}

// The real component type of T (T itself, or R for std::complex<R>).
template <typename T>
struct Component {
  using type = T;
};
template <typename R>
struct Component<std::complex<R>> {
  using type = R;
};

// Bit equality in which any two NaNs are equal: NaN sign and payload bits
// are outside the bit-identity protocol (DESIGN.md §13.2), NaN positions
// and every other bit are not.  T is a real or complex scalar.
template <typename T>
::testing::AssertionResult bits_equal_nan(const std::vector<T>& a,
                                          const std::vector<T>& b) {
  using R = typename Component<T>::type;
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  const R* pa = reinterpret_cast<const R*>(a.data());
  const R* pb = reinterpret_cast<const R*>(b.data());
  for (std::size_t i = 0; i < a.size() * (sizeof(T) / sizeof(R)); ++i) {
    if (std::isnan(pa[i]) && std::isnan(pb[i])) continue;
    if (std::memcmp(pa + i, pb + i, sizeof(R)) != 0) {
      return ::testing::AssertionFailure()
             << "bit mismatch at component " << i << ": " << pa[i] << " vs "
             << pb[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Simd, DispatchAndForce) {
  ArmGuard guard;
  EXPECT_EQ(simd::active_arm(), simd::detected_arm());
  if (!simd::simd_compiled()) {
    // Scalar-only build: every request clamps to scalar.
    EXPECT_EQ(simd::detected_arm(), simd::Arm::kScalar);
    EXPECT_EQ(simd::force_arm(simd::Arm::kAvx2), simd::Arm::kScalar);
    return;
  }
  EXPECT_EQ(simd::force_arm(simd::Arm::kScalar), simd::Arm::kScalar);
  EXPECT_EQ(simd::active_arm(), simd::Arm::kScalar);
  // Requests above what the CPU has clamp to the detected arm.
  EXPECT_LE(static_cast<int>(simd::force_arm(simd::Arm::kAvx2)),
            static_cast<int>(simd::detected_arm()));
}

TEST(Simd, ArmNames) {
  EXPECT_STREQ(simd::arm_name(simd::Arm::kScalar), "scalar");
  EXPECT_STREQ(simd::arm_name(simd::Arm::kSse2), "sse2");
  EXPECT_STREQ(simd::arm_name(simd::Arm::kAvx2), "avx2");
}

TEST(Simd, AlignedVectorContract) {
  aligned_vector<float> f(3);
  aligned_vector<cd> zd(5);
  aligned_vector<cf> zf(7);
  EXPECT_TRUE(is_aligned(f.data()));
  EXPECT_TRUE(is_aligned(zd.data()));
  EXPECT_TRUE(is_aligned(zf.data()));
  // Reallocation preserves alignment.
  f.resize(1000);
  EXPECT_TRUE(is_aligned(f.data()));
}

TEST(Simd, FftWorkspaceBuffersAligned) {
  Fft2Workspace wd;
  EXPECT_TRUE(is_aligned(wd.col_buffer(33)));
  EXPECT_TRUE(is_aligned(wd.band_buffer(29 * 64)));
  EXPECT_TRUE(is_aligned(wd.scratch_for(fft_plan_d(97))));
  EXPECT_TRUE(is_aligned(wd.plane_buffer(45 * 45)));
  Fft2WorkspaceF wf;
  EXPECT_TRUE(is_aligned(wf.col_buffer(64)));
  EXPECT_TRUE(is_aligned(wf.band_buffer(29 * 64)));
  EXPECT_TRUE(is_aligned(wf.scratch_for(fft_plan_f(251))));
  EXPECT_TRUE(is_aligned(wf.plane_buffer(64 * 64)));
  // Growth reallocates and keeps the alignment.
  EXPECT_TRUE(is_aligned(wf.plane_buffer(128 * 128)));
  // Power-of-two plans need no Bluestein scratch.
  EXPECT_EQ(wd.scratch_for(fft_plan_d(64)), nullptr);
}

// Element kernels: scalar-arm output is the reference; every vector arm
// must reproduce it bit for bit, including at unaligned offsets and with
// lengths that leave every possible vector tail.
template <typename Fn>
void for_each_vector_arm(const Fn& fn) {
  ArmGuard guard;
  for (simd::Arm arm : vector_arms()) {
    simd::force_arm(arm);
    fn(arm);
  }
}

TEST(Simd, CmulBitIdentical) {
  Rng rng = make_rng(1);
  for (const int n : {1, 2, 3, 4, 7, 8, 64, 97}) {
    const auto ad = random_cvec<cd>(n + 1, rng);
    const auto bd = random_cvec<cd>(n + 1, rng);
    const auto af = random_cvec<cf>(n + 1, rng);
    const auto bf = random_cvec<cf>(n + 1, rng);
    std::vector<cd> refd(ad.size());
    std::vector<cf> reff(af.size());
    {
      ArmGuard guard;
      simd::force_arm(simd::Arm::kScalar);
      // Offset +1 exercises the unaligned path on both operands.
      simd::cmul(refd.data() + 1, ad.data() + 1, bd.data() + 1, n);
      simd::cmul(reff.data() + 1, af.data() + 1, bf.data() + 1, n);
    }
    for_each_vector_arm([&](simd::Arm) {
      std::vector<cd> outd(ad.size());
      std::vector<cf> outf(af.size());
      simd::cmul(outd.data() + 1, ad.data() + 1, bd.data() + 1, n);
      simd::cmul(outf.data() + 1, af.data() + 1, bf.data() + 1, n);
      EXPECT_EQ(std::memcmp(outd.data() + 1, refd.data() + 1,
                            static_cast<std::size_t>(n) * sizeof(cd)),
                0)
          << "cd n=" << n;
      EXPECT_EQ(std::memcmp(outf.data() + 1, reff.data() + 1,
                            static_cast<std::size_t>(n) * sizeof(cf)),
                0)
          << "cf n=" << n;
      // In-place variant aliases dst == a.
      std::vector<cd> ind = ad;
      simd::cmul_inplace(ind.data() + 1, bd.data() + 1, n);
      EXPECT_EQ(std::memcmp(ind.data() + 1, refd.data() + 1,
                            static_cast<std::size_t>(n) * sizeof(cd)),
                0);
    });
  }
}

TEST(Simd, FftStageBitIdentical) {
  // Every radix-2 stage geometry a pow2 transform can produce: block count
  // len/(2*half) from many blocks of tiny halves down to one block of
  // half = len/2, covering every vector tail in the k-within-block lanes.
  Rng rng = make_rng(11);
  for (const int len : {8, 16, 64}) {
    for (int half = 1; half < len; half <<= 1) {
      const auto xd0 = random_cvec<cd>(len, rng);
      const auto xf0 = random_cvec<cf>(len, rng);
      // fft_stage contracts only on bit-identity across arms, not on the
      // table's values — random twiddles exercise it just as well.
      const auto twd = random_cvec<cd>(half, rng);
      const auto twf = random_cvec<cf>(half, rng);
      std::vector<cd> refd = xd0;
      std::vector<cf> reff = xf0;
      {
        ArmGuard guard;
        simd::force_arm(simd::Arm::kScalar);
        simd::fft_stage(refd.data(), len, half, twd.data());
        simd::fft_stage(reff.data(), len, half, twf.data());
      }
      for_each_vector_arm([&](simd::Arm arm) {
        std::vector<cd> xd = xd0;
        std::vector<cf> xf = xf0;
        simd::fft_stage(xd.data(), len, half, twd.data());
        simd::fft_stage(xf.data(), len, half, twf.data());
        EXPECT_TRUE(bits_equal(xd, refd))
            << "cd len=" << len << " half=" << half << " arm="
            << simd::arm_name(arm);
        EXPECT_TRUE(bits_equal(xf, reff))
            << "cf len=" << len << " half=" << half << " arm="
            << simd::arm_name(arm);
      });
    }
  }
  // Non-finite and -0 lanes, in the data and in the twiddles: every arm
  // computes the same 4-mul/2-add product, so ±Inf, NaN positions and zero
  // signs agree too (only NaN sign/payload bits may differ).
  for (const int len : {8, 16, 64}) {
    for (int half = 1; half < len; half <<= 1) {
      auto xd0 = random_cvec<cd>(len, rng);
      auto xf0 = random_cvec<cf>(len, rng);
      auto twd = random_cvec<cd>(half, rng);
      auto twf = random_cvec<cf>(half, rng);
      sprinkle_specials(xd0, rng);
      sprinkle_specials(xf0, rng);
      sprinkle_specials(twd, rng);
      sprinkle_specials(twf, rng);
      std::vector<cd> refd = xd0;
      std::vector<cf> reff = xf0;
      {
        ArmGuard guard;
        simd::force_arm(simd::Arm::kScalar);
        simd::fft_stage(refd.data(), len, half, twd.data());
        simd::fft_stage(reff.data(), len, half, twf.data());
      }
      for_each_vector_arm([&](simd::Arm arm) {
        std::vector<cd> xd = xd0;
        std::vector<cf> xf = xf0;
        simd::fft_stage(xd.data(), len, half, twd.data());
        simd::fft_stage(xf.data(), len, half, twf.data());
        EXPECT_TRUE(bits_equal_nan(xd, refd))
            << "specials cd len=" << len << " half=" << half
            << " arm=" << simd::arm_name(arm);
        EXPECT_TRUE(bits_equal_nan(xf, reff))
            << "specials cf len=" << len << " half=" << half
            << " arm=" << simd::arm_name(arm);
      });
    }
  }
}

// The paired pass against its reference, two fft_stage calls on the scalar
// arm: every half that divides len into 4*half blocks (a superset of the
// halves 1, 4, 16, ... the plans pair), lengths that leave a lone last
// block for the two-block lanes (len % 8 == 4 at half 1, len % 16 == 8 at
// half 2), an unaligned offset, and a second round with ±Inf/NaN/-0 lanes.
template <typename C>
void stage_pair_pin(int len, int half, bool specials, Rng& rng) {
  auto x0 = random_cvec<C>(len + 1, rng);
  auto tw = random_cvec<C>(half, rng);
  auto tw2 = random_cvec<C>(2 * half, rng);
  if (specials) {
    sprinkle_specials(x0, rng);
    sprinkle_specials(tw, rng);
    sprinkle_specials(tw2, rng);
  }
  std::vector<C> ref = x0;
  {
    ArmGuard guard;
    simd::force_arm(simd::Arm::kScalar);
    simd::fft_stage(ref.data() + 1, len, half, tw.data());
    simd::fft_stage(ref.data() + 1, len, 2 * half, tw2.data());
    std::vector<C> pair = x0;
    simd::fft_stage_pair(pair.data() + 1, len, half, tw.data(), tw2.data());
    EXPECT_TRUE(bits_equal(pair, ref))
        << "scalar pair len=" << len << " half=" << half;
  }
  for_each_vector_arm([&](simd::Arm arm) {
    std::vector<C> x = x0;
    simd::fft_stage_pair(x.data() + 1, len, half, tw.data(), tw2.data());
    if (specials) {
      EXPECT_TRUE(bits_equal_nan(x, ref))
          << "specials len=" << len << " half=" << half
          << " sizeof(C)=" << sizeof(C) << " arm=" << simd::arm_name(arm);
    } else {
      EXPECT_TRUE(bits_equal(x, ref))
          << "len=" << len << " half=" << half << " sizeof(C)=" << sizeof(C)
          << " arm=" << simd::arm_name(arm);
    }
  });
}

TEST(Simd, FftStagePairBitIdentical) {
  Rng rng = make_rng(12);
  for (const bool specials : {false, true}) {
    for (const int len : {4, 8, 12, 16, 20, 24, 40, 64, 128, 1024}) {
      for (int half = 1; len % (4 * half) == 0; half <<= 1) {
        stage_pair_pin<cd>(len, half, specials, rng);
        stage_pair_pin<cf>(len, half, specials, rng);
      }
    }
  }
}

// The column-block passes: fft_rows_stage / fft_rows_pair over a row-major
// [rows x width] block must give, column by column, exactly what
// fft_stage / fft_stage_pair give on a contiguous copy of that column,
// followed (when scaled) by the two scaling multiplies — on the scalar
// arm — and every vector arm must reproduce the scalar arm.  Widths 1-9,
// 29 and 64 leave every vector tail; an unaligned offset and a second
// round with ±Inf/NaN/-0 lanes in data and twiddles.
template <typename C>
void rows_pin(int rows, int width, int half, bool pair, bool specials,
              bool scaled, Rng& rng) {
  using R = typename C::value_type;
  auto x0 = random_cvec<C>(rows * width + 1, rng);
  auto tw = random_cvec<C>(half, rng);
  auto tw2 = random_cvec<C>(2 * half, rng);
  if (specials) {
    sprinkle_specials(x0, rng);
    sprinkle_specials(tw, rng);
    sprinkle_specials(tw2, rng);
  }
  // An inexact 1/n and an s^2, as band_inverse's Bluestein grids use.
  const R factors[2] = {R(1) / R(45), R(45) * R(45)};
  const R* scale = scaled ? factors : nullptr;
  const auto run = [&](C* x) {
    pair ? simd::fft_rows_pair(x, rows, width, half, tw.data(), tw2.data(),
                               scale, nullptr)
         : simd::fft_rows_stage(x, rows, width, half, tw.data(), scale,
                                nullptr);
  };
  const auto same = [&](const std::vector<C>& a, const std::vector<C>& b) {
    return specials ? bits_equal_nan(a, b) : bits_equal(a, b);
  };
  const std::string where = std::string(pair ? "pair" : "stage") +
                            " rows=" + std::to_string(rows) +
                            " width=" + std::to_string(width) +
                            " half=" + std::to_string(half) +
                            " sizeof(C)=" + std::to_string(sizeof(C)) +
                            (specials ? " specials" : "") +
                            (scaled ? " scaled" : "");
  std::vector<C> ref = x0;
  {
    ArmGuard guard;
    simd::force_arm(simd::Arm::kScalar);
    run(ref.data() + 1);
    std::vector<C> per_column = x0;
    std::vector<C> col(static_cast<std::size_t>(rows));
    for (int j = 0; j < width; ++j) {
      C* base = per_column.data() + 1 + j;
      for (int r = 0; r < rows; ++r) col[r] = base[r * width];
      pair ? simd::fft_stage_pair(col.data(), rows, half, tw.data(),
                                  tw2.data())
           : simd::fft_stage(col.data(), rows, half, tw.data());
      for (int r = 0; r < rows; ++r) {
        if (scaled) {
          col[r] *= factors[0];
          col[r] *= factors[1];
        }
        base[r * width] = col[r];
      }
    }
    EXPECT_TRUE(same(ref, per_column)) << "scalar vs per-column " << where;
  }
  for_each_vector_arm([&](simd::Arm arm) {
    std::vector<C> x = x0;
    run(x.data() + 1);
    EXPECT_TRUE(same(x, ref)) << where << " arm=" << simd::arm_name(arm);
  });
}

constexpr int kRowWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 29, 64};

TEST(Simd, FftRowsStageBitIdentical) {
  Rng rng = make_rng(13);
  for (const bool specials : {false, true}) {
    for (const bool scaled : {false, true}) {
      for (const int rows : {2, 4, 8, 64}) {
        for (int half = 1; half < rows; half <<= 1) {
          for (const int width : kRowWidths) {
            rows_pin<cd>(rows, width, half, false, specials, scaled, rng);
            rows_pin<cf>(rows, width, half, false, specials, scaled, rng);
          }
        }
      }
    }
  }
}

TEST(Simd, FftRowsPairBitIdentical) {
  Rng rng = make_rng(14);
  for (const bool specials : {false, true}) {
    for (const bool scaled : {false, true}) {
      for (const int rows : {4, 8, 16, 64}) {
        for (int half = 1; rows % (4 * half) == 0; half <<= 1) {
          for (const int width : kRowWidths) {
            rows_pin<cd>(rows, width, half, true, specials, scaled, rng);
            rows_pin<cf>(rows, width, half, true, specials, scaled, rng);
          }
        }
      }
    }
  }
}

// The gathered first pass and the intensity epilogue.  On the scalar
// arm, fft_rows_pair_gather must equal placing its row table into the
// block (null rows as +0) and running fft_rows_pair, and a pass given
// `acc` must add re*re + im*im (the abs2_accum expression) of exactly the
// outputs the storing pass writes; every vector arm must reproduce the
// scalar arm.  The table mixes rows of another buffer (with -0.0
// entries), null rows and x's own rows; the rest of x starts as NaN, so a
// stray read would show.  Widths leave every vector tail; a second round
// has ±Inf/NaN/-0 lanes.
enum class RowsPass { kStage, kPair, kGather };

template <typename C>
void rows_io_pin(int rows, int width, int half, RowsPass pass, bool abs2,
                 bool specials, bool scaled, Rng& rng) {
  using R = typename C::value_type;
  const std::size_t n = static_cast<std::size_t>(rows) * width;
  auto in = random_cvec<C>(static_cast<int>(n), rng);
  for (std::size_t i = 0; i < n; i += 5) in[i] = C(R(-0.0), in[i].imag());
  auto tw = random_cvec<C>(half, rng);
  auto tw2 = random_cvec<C>(2 * half, rng);
  std::vector<R> acc0(n);
  for (R& v : acc0) v = static_cast<R>(rng.normal());
  if (specials) {
    sprinkle_specials(in, rng);
    sprinkle_specials(tw, rng);
    sprinkle_specials(tw2, rng);
  }
  const R factors[2] = {R(1) / R(45), R(45) * R(45)};
  const R* scale = scaled ? factors : nullptr;
  const bool gather = pass == RowsPass::kGather;
  const auto row = [width](std::vector<C>& v, int r) {
    return v.data() + static_cast<std::ptrdiff_t>(r) * width;
  };
  // x before the call, and the block a gathered pass must act as if it
  // had been placed.
  std::vector<C> x0 = in;
  std::vector<C> placed = in;
  if (gather) {
    const R nan = std::numeric_limits<R>::quiet_NaN();
    x0.assign(n, C(nan, nan));
    for (int r = 0; r < rows; ++r) {
      if (r % 3 == 1) std::fill_n(row(placed, r), width, C(0, 0));
      if (r % 3 == 2) std::copy_n(row(in, r), width, row(x0, r));
    }
  }
  const auto run = [&](std::vector<C>& x, R* acc) {
    if (!gather) {
      pass == RowsPass::kPair
          ? simd::fft_rows_pair(x.data(), rows, width, half, tw.data(),
                                tw2.data(), scale, acc)
          : simd::fft_rows_stage(x.data(), rows, width, half, tw.data(),
                                 scale, acc);
      return;
    }
    std::vector<const C*> src(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      src[r] = r % 3 == 1 ? nullptr : r % 3 == 2 ? row(x, r) : row(in, r);
    }
    simd::fft_rows_pair_gather(x.data(), src.data(), rows, width, half,
                               tw.data(), tw2.data(), scale, acc);
  };
  const auto same = [&](const auto& a, const auto& b) {
    return specials ? bits_equal_nan(a, b) : bits_equal(a, b);
  };
  const std::string where =
      std::string(pass == RowsPass::kStage  ? "stage"
                  : pass == RowsPass::kPair ? "pair"
                                            : "gather") +
      (abs2 ? " abs2" : "") + " rows=" + std::to_string(rows) +
      " width=" + std::to_string(width) + " half=" + std::to_string(half) +
      " sizeof(C)=" + std::to_string(sizeof(C)) +
      (specials ? " specials" : "") + (scaled ? " scaled" : "");
  std::vector<C> ref_x = x0;
  std::vector<R> ref_acc = acc0;
  {
    ArmGuard guard;
    simd::force_arm(simd::Arm::kScalar);
    std::vector<C> stored = placed;
    pass == RowsPass::kStage
        ? simd::fft_rows_stage(stored.data(), rows, width, half, tw.data(),
                               scale, nullptr)
        : simd::fft_rows_pair(stored.data(), rows, width, half, tw.data(),
                              tw2.data(), scale, nullptr);
    if (abs2) {
      std::vector<R> want = acc0;
      for (std::size_t i = 0; i < n; ++i) {
        want[i] += stored[i].real() * stored[i].real() +
                   stored[i].imag() * stored[i].imag();
      }
      run(ref_x, ref_acc.data());
      EXPECT_TRUE(same(ref_acc, want)) << "scalar vs stored " << where;
    } else {
      run(ref_x, nullptr);
      EXPECT_TRUE(same(ref_x, stored)) << "scalar vs placed " << where;
    }
  }
  for_each_vector_arm([&](simd::Arm arm) {
    std::vector<C> x = x0;
    std::vector<R> acc = acc0;
    run(x, abs2 ? acc.data() : nullptr);
    if (abs2) {
      EXPECT_TRUE(same(acc, ref_acc)) << where << " arm="
                                      << simd::arm_name(arm);
    } else {
      EXPECT_TRUE(same(x, ref_x)) << where << " arm=" << simd::arm_name(arm);
    }
  });
}

TEST(Simd, FftRowsPairGatherBitIdentical) {
  Rng rng = make_rng(15);
  for (const bool specials : {false, true}) {
    for (const bool scaled : {false, true}) {
      for (const int rows : {4, 8, 16, 64}) {
        for (int half = 1; rows % (4 * half) == 0; half <<= 1) {
          for (const int width : kRowWidths) {
            for (const bool abs2 : {false, true}) {
              rows_io_pin<cd>(rows, width, half, RowsPass::kGather, abs2,
                              specials, scaled, rng);
              rows_io_pin<cf>(rows, width, half, RowsPass::kGather, abs2,
                              specials, scaled, rng);
            }
          }
        }
      }
    }
  }
}

TEST(Simd, FftRowsAbs2EpilogueBitIdentical) {
  Rng rng = make_rng(16);
  for (const bool specials : {false, true}) {
    for (const bool scaled : {false, true}) {
      for (const int rows : {2, 4, 8, 64}) {
        for (int half = 1; half < rows; half <<= 1) {
          for (const int width : kRowWidths) {
            rows_io_pin<cd>(rows, width, half, RowsPass::kStage, true,
                            specials, scaled, rng);
            rows_io_pin<cf>(rows, width, half, RowsPass::kStage, true,
                            specials, scaled, rng);
            if (rows % (4 * half) != 0) continue;
            rows_io_pin<cd>(rows, width, half, RowsPass::kPair, true,
                            specials, scaled, rng);
            rows_io_pin<cf>(rows, width, half, RowsPass::kPair, true,
                            specials, scaled, rng);
          }
        }
      }
    }
  }
}

template <typename R>
std::vector<R> random_rvec(int n, Rng& rng) {
  std::vector<R> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<R>(rng.normal());
  return v;
}

template <typename R>
void abs2_accum_pin(Rng& rng) {
  for (const int n : {1, 2, 3, 4, 5, 8, 9, 16, 33, 63, 100}) {
    const auto e = random_rvec<R>(2 * n, rng);
    const auto acc0 = random_rvec<R>(n, rng);
    std::vector<R> ref = acc0;
    {
      ArmGuard guard;
      simd::force_arm(simd::Arm::kScalar);
      simd::abs2_accum(ref.data(), e.data(), n);
    }
    for_each_vector_arm([&](simd::Arm) {
      std::vector<R> acc = acc0;
      simd::abs2_accum(acc.data(), e.data(), n);
      EXPECT_TRUE(bits_equal(acc, ref))
          << "n=" << n << " sizeof(R)=" << sizeof(R);
    });
  }
}

TEST(Simd, Abs2AccumBitIdentical) {
  Rng rng = make_rng(3);
  abs2_accum_pin<float>(rng);
}

// The register-blocked panel kernel: every row height, both A layouts
// (row-major strides and transposed strides), and
// column counts that leave 16-, 8-, 4-wide and scalar tails.
TEST(Simd, GemmPanelBitIdentical) {
  Rng rng = make_rng(9);
  for (const std::int64_t mr : {1, 2, 3, 4}) {
    for (const std::int64_t n : {1, 5, 8, 16, 17, 33}) {
      const std::int64_t k = 7;
      const auto a = random_fvec(static_cast<int>(mr * k), rng);
      const auto b = random_fvec(static_cast<int>(k * n), rng);
      const auto c0 = random_fvec(static_cast<int>(mr * n), rng);
      // Layouts: (ars=k, aps=1) reads a row-major; (ars=1, aps=mr) reads
      // the same buffer as a column-major (the A^T view).
      struct Layout {
        std::int64_t ars, aps;
      };
      for (const Layout lay : {Layout{k, 1}, Layout{1, mr}}) {
        std::vector<float> ref = c0;
        {
          ArmGuard guard;
          simd::force_arm(simd::Arm::kScalar);
          simd::gemm_panel(ref.data(), n, a.data(), lay.ars, lay.aps,
                           b.data(), n, mr, k, n);
        }
        for_each_vector_arm([&](simd::Arm arm) {
          std::vector<float> c = c0;
          simd::gemm_panel(c.data(), n, a.data(), lay.ars, lay.aps, b.data(),
                           n, mr, k, n);
          EXPECT_TRUE(bits_equal(c, ref))
              << "mr=" << mr << " n=" << n << " ars=" << lay.ars
              << " arm=" << simd::arm_name(arm);
        });
      }
    }
  }
}

TEST(Simd, Abs2BackpropBitIdentical) {
  Rng rng = make_rng(10);
  for (const int n : {1, 2, 3, 4, 7, 8, 63}) {
    const auto e = random_fvec(2 * (n + 1), rng);
    const auto gy = random_fvec(n + 1, rng);
    const auto g0 = random_fvec(2 * (n + 1), rng);
    std::vector<float> ref = g0;
    {
      ArmGuard guard;
      simd::force_arm(simd::Arm::kScalar);
      simd::abs2_backprop(ref.data() + 2, e.data() + 2, gy.data() + 1, n);
    }
    for_each_vector_arm([&](simd::Arm arm) {
      std::vector<float> g = g0;
      simd::abs2_backprop(g.data() + 2, e.data() + 2, gy.data() + 1, n);
      EXPECT_TRUE(bits_equal(g, ref))
          << "n=" << n << " arm=" << simd::arm_name(arm);
    });
  }
}

// Whole-transform pins: forward and inverse FFTs of every plan family
// (radix-2 and prime Bluestein sizes) must not change a single bit across
// arms — butterflies, stage tables, and the Bluestein pointwise multiply
// all sit under the dispatch layer.
template <typename R>
void fft_bit_identity(const FftPlan<R>& plan, int salt) {
  Rng rng = make_rng(100 + salt);
  const int n = plan.size();
  const auto x0 = random_cvec<std::complex<R>>(n, rng);
  std::vector<std::complex<R>> fwd_ref = x0, inv_ref = x0;
  {
    ArmGuard guard;
    simd::force_arm(simd::Arm::kScalar);
    plan.forward(fwd_ref.data());
    plan.inverse(inv_ref.data());
  }
  for_each_vector_arm([&](simd::Arm arm) {
    std::vector<std::complex<R>> fwd = x0, inv = x0;
    plan.forward(fwd.data());
    plan.inverse(inv.data());
    EXPECT_TRUE(bits_equal(fwd, fwd_ref))
        << "forward n=" << n << " arm=" << simd::arm_name(arm);
    EXPECT_TRUE(bits_equal(inv, inv_ref))
        << "inverse n=" << n << " arm=" << simd::arm_name(arm);
  });
}

TEST(Simd, FftBitIdenticalAcrossArms) {
  int salt = 0;
  for (const int n : {8, 64, 97, 251, 509, 512}) {
    fft_bit_identity(fft_plan_d(n), ++salt);
    fft_bit_identity(fft_plan_f(n), ++salt);
  }
}

// The multi-segment entry points under the shared stage schedule: every
// radix-2 size 2..2048 (odd and even stage counts, so both a trailing lone
// stage and none) and Bluestein sizes, over an odd segment count, each
// arm's output memcmp-equal to the scalar arm's.
template <typename R>
void fft_many_bit_identity(const FftPlan<R>& plan, int salt) {
  using C = std::complex<R>;
  constexpr int kCount = 3;
  Rng rng = make_rng(200 + salt);
  const int n = plan.size();
  const auto x0 = random_cvec<C>(n * kCount, rng);
  std::vector<C> scratch(static_cast<std::size_t>(plan.scratch_size()));
  const int* rev = plan.bitrev_table();
  std::vector<C> x0_rev = x0;
  if (rev != nullptr) {
    for (int t = 0; t < kCount; ++t) {
      for (int i = 0; i < n; ++i) x0_rev[t * n + rev[i]] = x0[t * n + i];
    }
  }
  const auto run = [&] {
    std::vector<std::vector<C>> out(6, x0);
    plan.forward(out[0].data());
    plan.inverse(out[1].data());
    plan.forward_many(out[2].data(), kCount, scratch.data());
    plan.inverse_many(out[3].data(), kCount, scratch.data());
    if (rev != nullptr) {
      out[4] = x0_rev;
      out[5] = x0_rev;
      plan.forward_many_prerev(out[4].data(), kCount, scratch.data());
      plan.inverse_many_prerev(out[5].data(), kCount, scratch.data());
    }
    return out;
  };
  std::vector<std::vector<C>> ref;
  {
    ArmGuard guard;
    simd::force_arm(simd::Arm::kScalar);
    ref = run();
  }
  for_each_vector_arm([&](simd::Arm arm) {
    const auto out = run();
    for (std::size_t e = 0; e < out.size(); ++e) {
      EXPECT_TRUE(bits_equal(out[e], ref[e]))
          << "entry " << e << " n=" << n << " arm=" << simd::arm_name(arm);
    }
  });
}

TEST(Simd, FftManyBitIdenticalAcrossArms) {
  int salt = 0;
  for (int n = 2; n <= 2048; n <<= 1) {
    fft_many_bit_identity(fft_plan_d(n), ++salt);
    fft_many_bit_identity(fft_plan_f(n), ++salt);
  }
  for (const int n : {29, 97, 509}) {
    fft_many_bit_identity(fft_plan_d(n), ++salt);
    fft_many_bit_identity(fft_plan_f(n), ++salt);
  }
}

// Dense GEMM pins: gemm_dense with row-major and transposed A must match
// the scalar arm bitwise, with and without accumulation.
TEST(Simd, GemmBitIdenticalAcrossArms) {
  Rng rng = make_rng(5);
  struct Shape {
    std::int64_t m, n, k;
  };
  // (5, 17, 9) leaves odd vector tails everywhere.
  for (const Shape sh : {Shape{3, 5, 4}, Shape{5, 17, 9}, Shape{8, 32, 32}}) {
    const auto a = random_fvec(static_cast<int>(sh.m * sh.k), rng);
    const auto b_nn = random_fvec(static_cast<int>(sh.k * sh.n), rng);
    const auto a_tn = random_fvec(static_cast<int>(sh.k * sh.m), rng);
    const auto c0 = random_fvec(static_cast<int>(sh.m * sh.n), rng);
    for (const bool accumulate : {false, true}) {
      std::vector<float> ref_nn = c0, ref_tn = c0;
      {
        ArmGuard guard;
        simd::force_arm(simd::Arm::kScalar);
        nn::gemm_dense(sh.m, sh.n, sh.k, a.data(), sh.k, 1, b_nn.data(),
                       sh.n, ref_nn.data(), sh.n, accumulate);
        nn::gemm_dense(sh.m, sh.n, sh.k, a_tn.data(), 1, sh.m, b_nn.data(),
                       sh.n, ref_tn.data(), sh.n, accumulate);
      }
      for_each_vector_arm([&](simd::Arm arm) {
        std::vector<float> c_nn = c0, c_tn = c0;
        nn::gemm_dense(sh.m, sh.n, sh.k, a.data(), sh.k, 1, b_nn.data(),
                       sh.n, c_nn.data(), sh.n, accumulate);
        nn::gemm_dense(sh.m, sh.n, sh.k, a_tn.data(), 1, sh.m, b_nn.data(),
                       sh.n, c_tn.data(), sh.n, accumulate);
        EXPECT_TRUE(bits_equal(c_nn, ref_nn))
            << "nn m=" << sh.m << " acc=" << accumulate
            << " arm=" << simd::arm_name(arm);
        EXPECT_TRUE(bits_equal(c_tn, ref_tn))
            << "tn m=" << sh.m << " acc=" << accumulate
            << " arm=" << simd::arm_name(arm);
      });
    }
  }
}

TEST(Simd, AdamUpdateBitIdentical) {
  // Every op in the update (mul, add, sub, div, sqrt) is IEEE
  // exactly-rounded in scalar and vector form, so the arms must agree bit
  // for bit on all three written streams, including vector tails.
  Rng rng = make_rng(9);
  const float beta1 = 0.9f, beta2 = 0.999f, lr = 1e-3f, eps = 1e-8f;
  const float bc1 = 0.2f, bc2 = 0.05f;
  for (const int n : {1, 3, 7, 8, 15, 64, 97}) {
    const auto g = random_fvec(n, rng);
    const auto p0 = random_fvec(n, rng);
    const auto m0 = random_fvec(n, rng);
    auto v0 = random_fvec(n, rng);
    for (auto& x : v0) x *= x;  // second moments are nonnegative
    std::vector<float> pr = p0, mr = m0, vr = v0;
    {
      ArmGuard guard;
      simd::force_arm(simd::Arm::kScalar);
      simd::adam_update(pr.data(), mr.data(), vr.data(), g.data(), n, beta1,
                        beta2, bc1, bc2, lr, eps);
    }
    for_each_vector_arm([&](simd::Arm arm) {
      std::vector<float> p = p0, m = m0, v = v0;
      simd::adam_update(p.data(), m.data(), v.data(), g.data(), n, beta1,
                        beta2, bc1, bc2, lr, eps);
      EXPECT_TRUE(bits_equal(p, pr)) << simd::arm_name(arm) << " n=" << n;
      EXPECT_TRUE(bits_equal(m, mr)) << simd::arm_name(arm) << " n=" << n;
      EXPECT_TRUE(bits_equal(v, vr)) << simd::arm_name(arm) << " n=" << n;
    });
  }
}

// The oracles' zero-skip loop (support/gemm_ref.hpp) against gemm_dense on
// a ReLU-sparse left operand with a finite right one.
TEST(Simd, GemmSkipZeroLhsUnchanged) {
  Rng rng = make_rng(6);
  const std::int64_t m = 4, n = 9, k = 6;
  auto a = random_fvec(static_cast<int>(m * k), rng);
  for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 0.0f;  // ReLU-sparse
  const auto b = random_fvec(static_cast<int>(k * n), rng);
  std::vector<float> dense(static_cast<std::size_t>(m * n));
  std::vector<float> sparse(static_cast<std::size_t>(m * n));
  ArmGuard guard;
  simd::force_arm(simd::Arm::kScalar);
  nn::gemm_dense(m, n, k, a.data(), k, 1, b.data(), n, dense.data(), n,
                 false);
  test::gemm_nn(m, n, k, a.data(), b.data(), sparse.data(), false);
  // Skipping av == 0 terms only removes exact-zero contributions of the
  // form 0 * b, which cannot change the sum when b is finite — why the
  // zero-skip oracles of tests/support pin gemm_dense on finite inputs.
  EXPECT_TRUE(bits_equal(dense, sparse));
}

// Engine-level pin: the whole aerial pipeline (fused scatter, pruned FFTs,
// abs2-scale accumulate, ordered reduction) across arms, on odd and even
// output grids (odd/even change the scatter wrap split point).
TEST(Simd, EngineAerialBitIdenticalAcrossArms) {
  Rng rng = make_rng(7);
  for (const int out_px : {32, 33}) {
    const int kdim = 9;
    AerialEngine engine(random_kernels(5, kdim, rng, /*dark_border=*/true),
                        out_px);
    const Grid<cd> spectrum = random_spectrum(kdim + 4, rng);
    Grid<double> ref;
    {
      ArmGuard guard;
      simd::force_arm(simd::Arm::kScalar);
      ref = engine.aerial(spectrum);
    }
    for_each_vector_arm([&](simd::Arm arm) {
      const Grid<double> got = engine.aerial(spectrum);
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                            ref.size() * sizeof(double)),
                0)
          << "out_px=" << out_px << " arm=" << simd::arm_name(arm);
    });
  }
}

// Concurrency: four threads hammer aerial_batch under the detected arm
// (bit-compared against the scalar arm's serial answer).  Run under the
// tsan preset, this also proves the dispatch atomic and the per-thread FFT
// workspaces are race-free with the SIMD kernels in play.
TEST(Simd, ConcurrentAerialBatchBitIdentical) {
  Rng rng = make_rng(8);
  const int out_px = 24, kdim = 7;
  AerialEngine engine(random_kernels(4, kdim, rng, /*dark_border=*/true),
                      out_px);
  std::vector<Grid<cd>> spectra;
  for (int i = 0; i < 4; ++i) spectra.push_back(random_spectrum(kdim + 2, rng));
  std::vector<Grid<double>> ref;
  {
    ArmGuard guard;
    simd::force_arm(simd::Arm::kScalar);
    ref = engine.aerial_batch(spectra);
  }
  std::vector<std::vector<Grid<double>>> got(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] { got[static_cast<std::size_t>(t)] =
                                      engine.aerial_batch(spectra); });
  }
  for (auto& th : threads) th.join();
  for (const auto& batch : got) {
    ASSERT_EQ(batch.size(), ref.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(std::memcmp(batch[i].data(), ref[i].data(),
                            ref[i].size() * sizeof(double)),
                0);
    }
  }
}

}  // namespace
}  // namespace nitho
