#include "support/test_support.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "io/tensor_io.hpp"

namespace nitho::test {

Rng make_rng(std::uint64_t salt) { return Rng(kTestSeed + salt * 0x9E3779B9ull); }

namespace {

template <typename Container>
double max_abs_diff_impl(const Container& a, const Container& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return m;
}

::testing::AssertionResult close_impl(double tol, bool same_shape,
                                      double diff) {
  if (!same_shape) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (diff <= tol) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "max|a-b| = " << diff << " exceeds tol = " << tol;
}

}  // namespace

double max_abs_diff(const Grid<double>& a, const Grid<double>& b) {
  if (!a.same_shape(b)) return std::numeric_limits<double>::infinity();
  return max_abs_diff_impl(a, b);
}

double max_abs_diff(const Grid<cd>& a, const Grid<cd>& b) {
  if (!a.same_shape(b)) return std::numeric_limits<double>::infinity();
  return max_abs_diff_impl(a, b);
}

double max_abs_diff(const std::vector<cd>& a, const std::vector<cd>& b) {
  return max_abs_diff_impl(a, b);
}

double max_abs_diff(const nn::Tensor& a, const nn::Tensor& b) {
  if (!a.same_shape(b)) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return m;
}

::testing::AssertionResult grids_close(const Grid<double>& a,
                                       const Grid<double>& b, double tol) {
  return close_impl(tol, a.same_shape(b), max_abs_diff(a, b));
}

::testing::AssertionResult grids_close(const Grid<cd>& a, const Grid<cd>& b,
                                       double tol) {
  return close_impl(tol, a.same_shape(b), max_abs_diff(a, b));
}

::testing::AssertionResult vectors_close(const std::vector<cd>& a,
                                         const std::vector<cd>& b, double tol) {
  return close_impl(tol, a.size() == b.size(), max_abs_diff(a, b));
}

::testing::AssertionResult tensors_close(const nn::Tensor& a,
                                         const nn::Tensor& b, double tol) {
  return close_impl(tol, a.same_shape(b), max_abs_diff(a, b));
}

::testing::AssertionResult tensors_bit_identical(const nn::Tensor& a,
                                                 const nn::Tensor& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure()
           << "shape " << a.shape_str() << " vs " << b.shape_str();
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "bit mismatch";
  }
  return ::testing::AssertionSuccess();
}

std::vector<simd::Arm> vector_arms() {
  std::vector<simd::Arm> arms;
  if (!simd::simd_compiled()) return arms;
  arms.push_back(simd::Arm::kSse2);
  if (simd::detected_arm() == simd::Arm::kAvx2) {
    arms.push_back(simd::Arm::kAvx2);
  }
  return arms;
}

std::vector<cd> dft_reference(const std::vector<cd>& x) {
  const int n = static_cast<int>(x.size());
  std::vector<cd> out(n);
  for (int k = 0; k < n; ++k) {
    cd acc{};
    for (int j = 0; j < n; ++j) {
      const double ang = -2.0 * kPi * static_cast<double>(k) * j / n;
      acc += x[j] * cd(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<cd> idft_reference(const std::vector<cd>& x) {
  const int n = static_cast<int>(x.size());
  std::vector<cd> out(n);
  for (int k = 0; k < n; ++k) {
    cd acc{};
    for (int j = 0; j < n; ++j) {
      const double ang = 2.0 * kPi * static_cast<double>(k) * j / n;
      acc += x[j] * cd(std::cos(ang), std::sin(ang));
    }
    out[k] = acc / static_cast<double>(n);
  }
  return out;
}

std::vector<cd> random_signal(int n, Rng& rng) {
  std::vector<cd> x(n);
  for (auto& v : x) v = cd(rng.normal(), rng.normal());
  return x;
}

Grid<cd> random_cgrid(int rows, int cols, Rng& rng) {
  Grid<cd> g(rows, cols);
  for (auto& v : g) v = cd(rng.normal(), rng.normal());
  return g;
}

Grid<double> random_grid(int rows, int cols, Rng& rng) {
  Grid<double> g(rows, cols);
  for (auto& v : g) v = rng.normal();
  return g;
}

Grid<double> random_mask(int rows, int cols, Rng& rng, double p) {
  Grid<double> g(rows, cols);
  for (auto& v : g) v = rng.bernoulli(p) ? 1.0 : 0.0;
  return g;
}

std::vector<Grid<cd>> random_kernels(int count, int kdim, Rng& rng,
                                     bool dark_border) {
  std::vector<Grid<cd>> kernels;
  kernels.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Grid<cd> k = random_cgrid(kdim, kdim, rng);
    if (dark_border && kdim >= 5) {
      for (int j = 0; j < kdim; ++j) {
        k(0, j) = k(kdim - 1, j) = cd(0.0, 0.0);
        k(j, 0) = k(j, kdim - 1) = cd(0.0, 0.0);
      }
    }
    kernels.push_back(std::move(k));
  }
  return kernels;
}

Grid<cd> random_hermitian(int n, Rng& rng) {
  Grid<cd> a(n, n);
  for (int i = 0; i < n; ++i) {
    a(i, i) = cd(rng.normal(), 0.0);
    for (int j = i + 1; j < n; ++j) {
      const cd v(rng.normal(), rng.normal());
      a(i, j) = v;
      a(j, i) = std::conj(v);
    }
  }
  return a;
}

Grid<cd> random_spectrum(int crop, Rng& rng, double scale) {
  check(crop % 2 == 1, "random_spectrum requires an odd centered crop");
  Grid<cd> spec(crop, crop, cd(0.0, 0.0));
  const int h = crop / 2;
  spec(h, h) = cd(0.3, 0.0);
  for (int r = 0; r < crop; ++r) {
    for (int c = 0; c < crop; ++c) {
      const int sr = r - h, sc = c - h;
      if (sr < 0 || (sr == 0 && sc <= 0)) continue;
      const cd v(rng.normal() * scale, rng.normal() * scale);
      spec(r, c) = v;
      spec(h - sr, h - sc) = std::conj(v);
    }
  }
  return spec;
}

std::string golden_dir() {
  // One fresh directory per test process: goldens never leak between runs,
  // code revisions or users sharing a machine.
  static const std::string dir = [] {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "nitho_golden_XXXXXX")
            .string();
    char* made = mkdtemp(tmpl.data());
    check(made != nullptr, "failed to create golden fixture directory");
    return std::string(made);
  }();
  return dir;
}

std::string golden_path(const std::string& name) {
  return golden_dir() + "/" + name;
}

void write_golden(const std::string& name, const Grid<double>& g) {
  save_grid(golden_path(name), g);
}

bool read_golden(const std::string& name, Grid<double>* out) {
  namespace fs = std::filesystem;
  const std::string path = golden_path(name);
  if (!fs::exists(path)) return false;
  *out = load_grid(path);
  return true;
}

}  // namespace nitho::test
