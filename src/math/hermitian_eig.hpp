#pragma once
// Dense Hermitian eigendecomposition.
//
// The TCC matrix (DESIGN.md §2) is Hermitian positive semi-definite; SOCS
// needs its full spectrum.  Primary algorithm: complex Householder reduction
// to real symmetric tridiagonal form followed by implicit-shift QL with
// eigenvector accumulation (the classic EISPACK htridi/tql2 pair).  A cyclic
// Jacobi solver is provided as an independent cross-check for tests.

#include <vector>

#include "math/cplx.hpp"
#include "math/grid.hpp"

namespace nitho {

/// Eigendecomposition A = V diag(w) V^H of a Hermitian matrix.
struct EighResult {
  std::vector<double> eigenvalues;  ///< ascending order
  Grid<cd> eigenvectors;            ///< column j pairs with eigenvalues[j]
};

/// Householder + implicit QL.  A must be square Hermitian (only its lower
/// triangle is trusted).  O(n^3), suitable for n up to a few thousand.
/// Runs hermitian_tridiagonalize, the QL iteration on (d, e) with its
/// rotations accumulated into q, then sort_eigenpairs.
EighResult eigh(const Grid<cd>& a);

/// A = Q T Q^H with T real symmetric tridiagonal: diagonal d (n), off
/// diagonal e (n - 1, e[i] couples i and i + 1) and Q unitary.
struct HermitianTridiagonal {
  std::vector<double> d;
  std::vector<double> e;
  Grid<cd> q;
};

/// eigh's first stage: Householder reduction of the Hermitian average
/// (A + A^H) / 2 to real tridiagonal form, Q accumulated explicitly.
HermitianTridiagonal hermitian_tridiagonalize(const Grid<cd>& a);

/// eigh's last stage: reorders eigenvalues ascending, permuting the
/// eigenvector columns with them.
void sort_eigenpairs(EighResult& r);

/// Cyclic complex Jacobi rotations; slower but independently derived.
/// max_sweeps bounds the outer iteration; throws if not converged.
EighResult eigh_jacobi(const Grid<cd>& a, int max_sweeps = 50);

/// ||A v - w v||_inf over all eigenpairs: a residual diagnostic used in tests.
double eigh_residual(const Grid<cd>& a, const EighResult& r);

}  // namespace nitho
