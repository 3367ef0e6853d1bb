#pragma once
// Shared test scaffolding: grid/tensor comparators with tolerance, golden
// fixture helpers, reference DFTs and seeded RNG factories.  Every suite
// should pull comparison helpers from here instead of re-implementing them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "nn/tensor.hpp"

namespace nitho::test {

/// Fixed seed used by default across suites so failures reproduce exactly.
inline constexpr std::uint64_t kTestSeed = 0xC0FFEEull;

/// Fresh deterministic generator; pass a salt to decorrelate sub-streams.
Rng make_rng(std::uint64_t salt = 0);

/// Max absolute elementwise difference (shape mismatch reports +inf).
double max_abs_diff(const Grid<double>& a, const Grid<double>& b);
double max_abs_diff(const Grid<cd>& a, const Grid<cd>& b);
double max_abs_diff(const std::vector<cd>& a, const std::vector<cd>& b);
double max_abs_diff(const nn::Tensor& a, const nn::Tensor& b);

/// gtest assertions: pass iff shapes match and max|a-b| <= tol.
::testing::AssertionResult grids_close(const Grid<double>& a,
                                       const Grid<double>& b, double tol);
::testing::AssertionResult grids_close(const Grid<cd>& a, const Grid<cd>& b,
                                       double tol);
::testing::AssertionResult vectors_close(const std::vector<cd>& a,
                                         const std::vector<cd>& b, double tol);
::testing::AssertionResult tensors_close(const nn::Tensor& a,
                                         const nn::Tensor& b, double tol);
/// gtest assertion: pass iff shapes match and every float is the same bit
/// pattern (memcmp; NaN payloads and signed zeros included).
::testing::AssertionResult tensors_bit_identical(const nn::Tensor& a,
                                                 const nn::Tensor& b);

/// Restores the CPU-detected SIMD arm when a test scope ends, so a failing
/// EXPECT cannot leak a forced arm into later tests.
struct ArmGuard {
  ~ArmGuard() { simd::force_arm(simd::detected_arm()); }
};

/// The non-scalar SIMD arms this build and CPU can run.
std::vector<simd::Arm> vector_arms();

/// O(n^2) reference DFT (forward: negative exponent, no normalisation).
std::vector<cd> dft_reference(const std::vector<cd>& x);
/// O(n^2) reference inverse DFT (positive exponent, 1/n normalisation).
std::vector<cd> idft_reference(const std::vector<cd>& x);

/// Random complex signal / grids for property tests.
std::vector<cd> random_signal(int n, Rng& rng);
Grid<cd> random_cgrid(int rows, int cols, Rng& rng);
Grid<double> random_grid(int rows, int cols, Rng& rng);
/// Random binary mask with the given fill probability.
Grid<double> random_mask(int rows, int cols, Rng& rng, double p = 0.5);
/// Random complex kernel stack (count kernels of kdim x kdim).  With
/// dark_border (and kdim >= 5), a one-pixel border ring is zeroed so the
/// kernels have structurally dark rows/columns like real pupil-limited
/// SOCS kernels — what the engine's row pruning keys on.
std::vector<Grid<cd>> random_kernels(int count, int kdim, Rng& rng,
                                     bool dark_border = false);
/// Random Hermitian n x n matrix (real diagonal, conjugate-symmetric).
Grid<cd> random_hermitian(int n, Rng& rng);
/// Hermitian-symmetric centered spectrum of a real mask; DC ~ density.
Grid<cd> random_spectrum(int crop, Rng& rng, double scale = 0.05);

/// Golden-fixture helpers: write/read a grid under the test's temp dir and
/// compare against a freshly computed value.  Path is created on demand.
std::string golden_dir();
std::string golden_path(const std::string& name);
void write_golden(const std::string& name, const Grid<double>& g);
bool read_golden(const std::string& name, Grid<double>* out);

}  // namespace nitho::test
