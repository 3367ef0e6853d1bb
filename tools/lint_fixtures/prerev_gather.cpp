// R5 fixture (lint_bit_identity --self-test): a hand-rolled bit-reversed
// column gather outside src/fft/ — the sixth copy R5 exists to stop.
#include <complex>

#include "fft/fft.hpp"

namespace fixture {

void column_pass(const nitho::FftPlan<float>& plan, std::complex<float>* cols,
                 const std::complex<float>* band, int rows, int s,
                 std::complex<float>* scratch) {
  const int* rev = plan.bitrev_table();
  for (int r = 0; r < rows; ++r) cols[rev[r]] = band[r * s];
  plan.inverse_many_prerev(cols, 1, scratch);
}

}  // namespace fixture
