#include "support/eigh_ref.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace nitho::test {
namespace {

// Implicit-shift QL on a real symmetric tridiagonal (d diag, e subdiag with
// e[i] coupling i and i+1), accumulating the real plane rotations into the
// complex column basis z.  Classic EISPACK tql2.
void tridiag_ql(std::vector<double>& d, std::vector<double>& e, Grid<cd>& z) {
  const int n = static_cast<int>(d.size());
  if (n <= 1) return;
  e.resize(n, 0.0);  // e[n-1] used as scratch

  // Deflation needs an absolute floor in addition to the classic relative
  // test: rank-deficient inputs (the TCC) produce clusters where both
  // neighbouring diagonals are ~0 and a purely relative test never fires.
  double anorm = 0.0;
  for (int i = 0; i < n; ++i) {
    double row = std::abs(d[i]);
    if (i > 0) row += std::abs(e[i - 1]);
    if (i < n - 1) row += std::abs(e[i]);
    anorm = std::max(anorm, row);
  }
  const double floor_tol = 1e-15 * anorm;

  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = l;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-15 * dd + floor_tol) break;
      }
      if (m != l) {
        check(iter++ < 64, "tridiagonal QL failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        int i = m - 1;
        bool underflow = false;
        for (; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (int k = 0; k < n; ++k) {
            const cd fk = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * fk;
            z(k, i) = c * z(k, i) - s * fk;
          }
        }
        if (underflow && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

}  // namespace

EighResult eigh_column_ql(const Grid<cd>& a) {
  HermitianTridiagonal t = hermitian_tridiagonalize(a);
  tridiag_ql(t.d, t.e, t.q);
  EighResult res;
  res.eigenvalues = std::move(t.d);
  res.eigenvectors = std::move(t.q);
  sort_eigenpairs(res);
  return res;
}

}  // namespace nitho::test
