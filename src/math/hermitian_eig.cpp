#include "math/hermitian_eig.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"

namespace nitho {
namespace {

// Complex Householder reflector in LAPACK zlarfg convention.
// Given x (length m, x[0] = alpha), produce (v, tau, beta) with v[0] = 1 and
// (I - conj(tau) v v^H) x = beta e1, beta real.
struct Reflector {
  std::vector<cd> v;  // length m, v[0] == 1
  cd tau{0.0, 0.0};
  double beta = 0.0;
};

Reflector make_reflector(const std::vector<cd>& x) {
  const int m = static_cast<int>(x.size());
  Reflector r;
  r.v.assign(x.begin(), x.end());
  const cd alpha = x[0];
  double tail2 = 0.0;
  for (int i = 1; i < m; ++i) tail2 += norm2(x[i]);

  if (tail2 == 0.0 && alpha.imag() == 0.0) {
    r.v[0] = cd(1.0, 0.0);
    r.tau = cd(0.0, 0.0);
    r.beta = alpha.real();
    return r;
  }
  const double xnorm = std::sqrt(norm2(alpha) + tail2);
  const double beta = (alpha.real() >= 0.0) ? -xnorm : xnorm;
  r.beta = beta;
  r.tau = cd((beta - alpha.real()) / beta, -alpha.imag() / beta);
  const cd scale = 1.0 / (alpha - beta);
  r.v[0] = cd(1.0, 0.0);
  for (int i = 1; i < m; ++i) r.v[i] = x[i] * scale;
  return r;
}

// Transposes a square grid in place.
void transpose_square(Grid<cd>& z) {
  const int n = z.rows();
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) std::swap(z(i, j), z(j, i));
}

// Implicit-shift QL on a real symmetric tridiagonal (d diag, e subdiag with
// e[i] coupling i and i+1), accumulating the real plane rotations into the
// complex column basis z.  Classic EISPACK tql2.  Each rotation mixes two
// columns of z; they are run on two contiguous rows of z^T instead (z is
// transposed in place once before and once after), which performs the
// same multiplies and adds on the same values, so the bits are those of
// the column walk.
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

  transpose_square(z);
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
          cd* zi = z.row(i);
          cd* zi1 = z.row(i + 1);
          for (int k = 0; k < n; ++k) {
            const cd fk = zi1[k];
            zi1[k] = s * zi[k] + c * fk;
            zi[k] = c * zi[k] - s * fk;
          }
        }
        if (underflow && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  transpose_square(z);
}

}  // namespace

HermitianTridiagonal hermitian_tridiagonalize(const Grid<cd>& a_in) {
  const int n = a_in.rows();
  check(a_in.cols() == n, "eigh requires a square matrix");
  HermitianTridiagonal t;
  t.q = Grid<cd>(n, n);
  if (n == 0) return t;

  // Work on the Hermitian average so slightly asymmetric inputs (numerical
  // noise from TCC accumulation) are handled gracefully.
  Grid<cd> a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a(i, j) = 0.5 * (a_in(i, j) + std::conj(a_in(j, i)));

  Grid<cd>& q = t.q;
  for (int i = 0; i < n; ++i) q(i, i) = cd(1.0, 0.0);

  std::vector<double>& d = t.d;
  std::vector<double>& e = t.e;
  d.assign(n, 0.0);
  e.assign(n > 1 ? n - 1 : 0, 0.0);

  // Householder tridiagonalization: for each column k zero A[k+2.., k] and
  // make the subdiagonal real; accumulate Q = H_0 H_1 ... .
  std::vector<cd> x, p, w;
  for (int k = 0; k + 1 < n; ++k) {
    const int m = n - 1 - k;  // reflector length
    x.assign(m, cd{});
    for (int i = 0; i < m; ++i) x[i] = a(k + 1 + i, k);
    Reflector h = make_reflector(x);
    e[k] = h.beta;

    if (h.tau != cd(0.0, 0.0)) {
      // Trailing block update B <- (I - conj(tau) v v^H) B (I - tau v v^H)
      //                        =  B - v w^H - w v^H,
      // with p = tau * B v and w = p - (tau |v^H p| / 2 ... ) see below.
      p.assign(m, cd{});
      for (int i = 0; i < m; ++i) {
        cd acc{};
        const cd* row = a.row(k + 1 + i) + (k + 1);
        for (int j = 0; j < m; ++j) acc += row[j] * h.v[j];
        p[i] = h.tau * acc;
      }
      cd vhp{};
      for (int i = 0; i < m; ++i) vhp += std::conj(h.v[i]) * p[i];
      const cd half = 0.5 * std::conj(h.tau) * vhp;
      // w = conj(tau) B v - (conj(tau) tau (v^H B v)/2) v;  expressed via p:
      // conj(tau) B v = conj(tau)/tau * p, but forming it through p keeps one
      // matvec.  Use w_i = conj(p_i scaled)...  Derivation (DESIGN.md §5):
      //   B' = B - conj(tau) v p0^H - tau p0 v^H + |tau|^2 s v v^H,
      // where p0 = B v, s = v^H p0 (real).  With p = tau p0 this groups as
      //   B' = B - v w^H - w v^H,  w = p - (conj(tau) (v^H p) / 2) v.
      w.assign(m, cd{});
      for (int i = 0; i < m; ++i) w[i] = p[i] - half * h.v[i];
      for (int i = 0; i < m; ++i) {
        cd* row = a.row(k + 1 + i) + (k + 1);
        const cd wi = w[i];
        const cd vi = h.v[i];
        for (int j = 0; j < m; ++j) {
          row[j] -= vi * std::conj(w[j]) + wi * std::conj(h.v[j]);
        }
      }
      // Accumulate Q <- Q (I - tau v v^H) over columns k+1..n-1.
      for (int i = 0; i < n; ++i) {
        cd* row = q.row(i) + (k + 1);
        cd coef{};
        for (int j = 0; j < m; ++j) coef += row[j] * h.v[j];
        coef *= h.tau;
        for (int j = 0; j < m; ++j) row[j] -= coef * std::conj(h.v[j]);
      }
    }
    a(k + 1, k) = cd(h.beta, 0.0);
  }
  for (int i = 0; i < n; ++i) d[i] = a(i, i).real();

  return t;
}

void sort_eigenpairs(EighResult& r) {
  const int n = static_cast<int>(r.eigenvalues.size());
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return r.eigenvalues[a] < r.eigenvalues[b];
  });
  std::vector<double> w(n);
  Grid<cd> v(n, n);
  for (int j = 0; j < n; ++j) {
    w[j] = r.eigenvalues[order[j]];
    for (int i = 0; i < n; ++i) v(i, j) = r.eigenvectors(i, order[j]);
  }
  r.eigenvalues = std::move(w);
  r.eigenvectors = std::move(v);
}

EighResult eigh(const Grid<cd>& a) {
  HermitianTridiagonal t = hermitian_tridiagonalize(a);
  EighResult res;
  tridiag_ql(t.d, t.e, t.q);
  res.eigenvalues = std::move(t.d);
  res.eigenvectors = std::move(t.q);
  sort_eigenpairs(res);
  return res;
}

EighResult eigh_jacobi(const Grid<cd>& a_in, int max_sweeps) {
  const int n = a_in.rows();
  check(a_in.cols() == n, "eigh_jacobi requires a square matrix");
  Grid<cd> a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a(i, j) = 0.5 * (a_in(i, j) + std::conj(a_in(j, i)));

  EighResult res;
  res.eigenvalues.assign(n, 0.0);
  res.eigenvectors = Grid<cd>(n, n);
  Grid<cd>& v = res.eigenvectors;
  for (int i = 0; i < n; ++i) v(i, i) = cd(1.0, 0.0);
  if (n <= 1) {
    if (n == 1) res.eigenvalues[0] = a(0, 0).real();
    return res;
  }

  double off0 = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) off0 += norm2(a(i, j));
  const double tol = std::max(1e-26, off0 * 1e-24);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) off += norm2(a(i, j));
    if (off <= tol) {
      for (int i = 0; i < n; ++i) res.eigenvalues[i] = a(i, i).real();
      sort_eigenpairs(res);
      return res;
    }
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const cd apq = a(p, q);
        const double g = std::abs(apq);
        if (g < 1e-300) continue;
        const cd phase = apq / g;  // e^{i phi}
        const double app = a(p, p).real();
        const double aqq = a(q, q).real();
        const double theta = (aqq - app) / (2.0 * g);
        const double t = std::copysign(1.0, theta) /
                         (std::abs(theta) + std::hypot(theta, 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Unitary block U = diag(1, conj(phase)) * [[c, s], [-s, c]]:
        //   U = [[c, s], [-s conj(phase), c conj(phase)]].
        const cd u10 = -s * std::conj(phase);
        const cd u11 = c * std::conj(phase);
        // Columns: A <- A U.
        for (int i = 0; i < n; ++i) {
          const cd aip = a(i, p), aiq = a(i, q);
          a(i, p) = c * aip + u10 * aiq;
          a(i, q) = s * aip + u11 * aiq;
        }
        // Rows: A <- U^H A.
        for (int j = 0; j < n; ++j) {
          const cd apj = a(p, j), aqj = a(q, j);
          a(p, j) = c * apj + std::conj(u10) * aqj;
          a(q, j) = s * apj + std::conj(u11) * aqj;
        }
        a(p, q) = cd(0.0, 0.0);
        a(q, p) = cd(0.0, 0.0);
        a(p, p) = cd(a(p, p).real(), 0.0);
        a(q, q) = cd(a(q, q).real(), 0.0);
        // Accumulate V <- V U.
        for (int i = 0; i < n; ++i) {
          const cd vip = v(i, p), viq = v(i, q);
          v(i, p) = c * vip + u10 * viq;
          v(i, q) = s * vip + u11 * viq;
        }
      }
    }
  }
  check_fail("Jacobi eigensolver did not converge",
             std::source_location::current());
}

double eigh_residual(const Grid<cd>& a, const EighResult& r) {
  const int n = a.rows();
  double worst = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      cd av{};
      for (int k = 0; k < n; ++k) av += a(i, k) * r.eigenvectors(k, j);
      const cd diff = av - r.eigenvalues[j] * r.eigenvectors(i, j);
      worst = std::max(worst, std::abs(diff));
    }
  }
  return worst;
}

}  // namespace nitho
