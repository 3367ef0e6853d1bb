// R5 fixture (lint_bit_identity --self-test): a hand-rolled bit-reversed
// row placement feeding the row-major column pass outside src/fft/ — a
// second copy of band_inverse's placement.
#include <algorithm>
#include <complex>

#include "fft/fft.hpp"

namespace fixture {

void column_pass(const nitho::FftPlan<float>& plan, std::complex<float>* out,
                 const std::complex<float>* band, int s,
                 std::complex<float>* scratch) {
  for (int r = 0; r < s; ++r) {
    std::copy_n(band + r * s, s, out + r * s);
  }
  plan.inverse_columns_prerev(out, s, scratch);
}

}  // namespace fixture
