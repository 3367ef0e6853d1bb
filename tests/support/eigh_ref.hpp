#pragma once
// Oracle for the Hermitian eigensolver (math/hermitian_eig.hpp): eigh with
// the historical tridiagonal QL, whose plane rotations walk two columns of
// the row-major eigenvector grid.  The QL is kept verbatim so the
// bit-identity pin in test_math has a fixed reference.  Do not "fix" or
// modernize it: its point is to preserve the historical arithmetic.  No
// library code calls it.

#include "math/hermitian_eig.hpp"

namespace nitho::test {

/// hermitian_tridiagonalize, the column-walk QL, then sort_eigenpairs.
EighResult eigh_column_ql(const Grid<cd>& a);

}  // namespace nitho::test
