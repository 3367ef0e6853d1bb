// Unit tests for src/math: Grid container, statistics and the Hermitian
// eigensolvers (Householder+QL against Jacobi and analytic cases).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "math/hermitian_eig.hpp"
#include "math/stats.hpp"
#include "optics/resolution.hpp"
#include "optics/tcc.hpp"
#include "support/eigh_ref.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

using test::random_hermitian;

TEST(Grid, ConstructionAndIndexing) {
  Grid<double> g(3, 4, 1.5);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g(2, 3), 1.5);
  g(1, 2) = -7.0;
  EXPECT_DOUBLE_EQ(g(1, 2), -7.0);
  EXPECT_DOUBLE_EQ(g[1 * 4 + 2], -7.0);
}

TEST(Grid, OutOfRangeThrows) {
  Grid<double> g(2, 2);
  EXPECT_THROW(g(2, 0), check_error);
  EXPECT_THROW(g(0, -1), check_error);
}

TEST(Grid, SumMaxMinCast) {
  Grid<double> g(2, 2);
  g(0, 0) = 1;
  g(0, 1) = -3;
  g(1, 0) = 5;
  g(1, 1) = 2;
  EXPECT_DOUBLE_EQ(grid_sum(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_max(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_min(g), -3.0);
  Grid<float> f = grid_cast<float>(g);
  EXPECT_FLOAT_EQ(f(1, 0), 5.0f);
}

TEST(Grid, RowPointerMatchesIndexing) {
  Grid<int> g(3, 3);
  int v = 0;
  for (auto& x : g) x = v++;
  EXPECT_EQ(g.row(1)[2], g(1, 2));
}

TEST(Grid, EqualityAndShape) {
  Grid<double> a(2, 3, 1.0), b(2, 3, 1.0), c(3, 2, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
  b(0, 0) = 2.0;
  EXPECT_FALSE(a == b);
}

TEST(Stats, SummaryOfKnownSample) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Stats, MedianEvenOdd) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(Eigh, DiagonalMatrix) {
  Grid<cd> a(3, 3);
  a(0, 0) = cd(3.0, 0.0);
  a(1, 1) = cd(-1.0, 0.0);
  a(2, 2) = cd(2.0, 0.0);
  const EighResult r = eigh(a);
  ASSERT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_NEAR(r.eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[2], 3.0, 1e-12);
}

TEST(Eigh, TwoByTwoAnalytic) {
  // [[2, i], [-i, 2]] has eigenvalues 1 and 3.
  Grid<cd> a(2, 2);
  a(0, 0) = cd(2.0, 0.0);
  a(0, 1) = cd(0.0, 1.0);
  a(1, 0) = cd(0.0, -1.0);
  a(1, 1) = cd(2.0, 0.0);
  const EighResult r = eigh(a);
  EXPECT_NEAR(r.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 3.0, 1e-12);
  EXPECT_LT(eigh_residual(a, r), 1e-10);
}

TEST(Eigh, ResidualSmallOnRandomMatrices) {
  Rng rng(19);
  for (int n : {1, 2, 3, 5, 8, 17, 40}) {
    const Grid<cd> a = random_hermitian(n, rng);
    const EighResult r = eigh(a);
    EXPECT_LT(eigh_residual(a, r), 1e-9 * std::max(1, n)) << "n=" << n;
    for (std::size_t i = 1; i < r.eigenvalues.size(); ++i) {
      EXPECT_LE(r.eigenvalues[i - 1], r.eigenvalues[i] + 1e-12);
    }
  }
}

TEST(Eigh, EigenvectorsOrthonormal) {
  Rng rng(23);
  const int n = 20;
  const Grid<cd> a = random_hermitian(n, rng);
  const EighResult r = eigh(a);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      cd dot{};
      for (int k = 0; k < n; ++k)
        dot += std::conj(r.eigenvectors(k, i)) * r.eigenvectors(k, j);
      EXPECT_NEAR(std::abs(dot), i == j ? 1.0 : 0.0, 1e-9) << i << "," << j;
    }
  }
}

TEST(Eigh, MatchesJacobiEigenvalues) {
  Rng rng(31);
  const int n = 24;
  const Grid<cd> a = random_hermitian(n, rng);
  const EighResult h = eigh(a);
  const EighResult j = eigh_jacobi(a);
  ASSERT_EQ(h.eigenvalues.size(), j.eigenvalues.size());
  for (std::size_t i = 0; i < h.eigenvalues.size(); ++i) {
    EXPECT_NEAR(h.eigenvalues[i], j.eigenvalues[i], 1e-8);
  }
  EXPECT_LT(eigh_residual(a, j), 1e-8);
}

TEST(Eigh, TraceAndSumOfEigenvaluesAgree) {
  Rng rng(37);
  const int n = 15;
  const Grid<cd> a = random_hermitian(n, rng);
  const EighResult r = eigh(a);
  double trace = 0.0, sum = 0.0;
  for (int i = 0; i < n; ++i) trace += a(i, i).real();
  for (double w : r.eigenvalues) sum += w;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(Eigh, PsdRankOneSums) {
  // Gram-like accumulation (as the TCC builder does) must yield
  // non-negative eigenvalues.
  Rng rng(41);
  const int n = 12;
  Grid<cd> a(n, n, cd(0.0, 0.0));
  for (int s = 0; s < 5; ++s) {
    std::vector<cd> v(n);
    for (auto& x : v) x = cd(rng.normal(), rng.normal());
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) a(i, j) += v[i] * std::conj(v[j]);
  }
  const EighResult r = eigh(a);
  for (double w : r.eigenvalues) EXPECT_GE(w, -1e-9);
  // Rank is at most 5.
  int positive = 0;
  for (double w : r.eigenvalues)
    if (w > 1e-9) ++positive;
  EXPECT_LE(positive, 5);
}

TEST(Eigh, DegenerateEigenvaluesHandled) {
  // Identity has a fully degenerate spectrum.
  const int n = 6;
  Grid<cd> a(n, n);
  for (int i = 0; i < n; ++i) a(i, i) = cd(1.0, 0.0);
  const EighResult r = eigh(a);
  for (double w : r.eigenvalues) EXPECT_NEAR(w, 1.0, 1e-12);
  EXPECT_LT(eigh_residual(a, r), 1e-10);
}

TEST(Eigh, RejectsNonSquare) {
  Grid<cd> a(2, 3);
  EXPECT_THROW(eigh(a), check_error);
  EXPECT_THROW(eigh_jacobi(a), check_error);
}

// eigh runs its QL rotations on rows of the transposed eigenvector grid;
// the historical column walk (tests/support/eigh_ref) must give the same
// eigenvalue and eigenvector bytes.
void expect_eigh_matches_column_ql(const Grid<cd>& a, const char* what) {
  const EighResult got = eigh(a);
  const EighResult ref = test::eigh_column_ql(a);
  const std::size_t n = ref.eigenvalues.size();
  ASSERT_EQ(got.eigenvalues.size(), n) << what;
  ASSERT_EQ(got.eigenvectors.size(), ref.eigenvectors.size()) << what;
  EXPECT_EQ(std::memcmp(got.eigenvalues.data(), ref.eigenvalues.data(),
                        n * sizeof(double)),
            0)
      << what;
  EXPECT_EQ(std::memcmp(got.eigenvectors.data(), ref.eigenvectors.data(),
                        ref.eigenvectors.size() * sizeof(cd)),
            0)
      << what;
}

TEST(Eigh, BitIdenticalToColumnWalkQl) {
  Rng rng(211);
  expect_eigh_matches_column_ql(random_hermitian(1, rng), "n=1");
  expect_eigh_matches_column_ql(random_hermitian(61, rng), "random n=61");
  // The 512-nm tile's TCC (kdim 15 -> 225 x 225): rank-deficient, so the
  // QL's deflation floor and its clustered eigenvalues are exercised.
  const int kdim = kernel_dim(512, 193.0, 1.35);
  expect_eigh_matches_column_ql(build_tcc(OpticalSystem{}, 512, kdim),
                                "512-nm TCC");
}

class EighSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(EighSizeSweep, ResidualAndOrthogonality) {
  Rng rng(100 + GetParam());
  const int n = GetParam();
  const Grid<cd> a = random_hermitian(n, rng);
  const EighResult r = eigh(a);
  EXPECT_LT(eigh_residual(a, r), 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighSizeSweep,
                         ::testing::Values(2, 4, 9, 16, 25, 49, 64, 100));

}  // namespace
}  // namespace nitho
