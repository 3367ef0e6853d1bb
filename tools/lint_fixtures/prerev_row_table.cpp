// R5 fixture (lint_bit_identity --self-test): a hand-built bit-reversed
// row table feeding the gathered column pass outside src/fft/ — a second
// copy of band_intensity's band-row map.
#include <complex>
#include <vector>

#include "fft/fft.hpp"

namespace fixture {

void intensity(const nitho::FftPlan<float>& plan, std::complex<float>* work,
               const std::complex<float>* band, const int* grid_row, int kr,
               int s, float* acc) {
  std::vector<const std::complex<float>*> rows(s, nullptr);
  for (int a = 0; a < kr; ++a) rows[grid_row[a]] = band + a * s;
  plan.intensity_columns_gather(rows.data(), work, s, nullptr,
                                static_cast<float>(s * s), acc);
}

}  // namespace fixture
