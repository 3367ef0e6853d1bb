// Clean R5 fixture: the pruned transforms are used through fft/pruned.hpp,
// and the gather's internals appear only in prose — bitrev_table(),
// inverse_many_prerev(x, n, scratch), forward_columns_prerev(x, w,
// scratch) and intensity_columns_gather(rows, x, w, scratch, f, acc) in a
// comment, or a string, must not fire.  Plain many-transform and
// column-transform calls are fine anywhere.
#include <complex>
#include <string>

#include "fft/pruned.hpp"

namespace fixture {

std::string why() {
  return "never call forward_many_prerev(, forward_columns_prerev( or "
         "inverse_columns_gather( outside fft";
}

void rows(const nitho::FftPlan<float>& plan, std::complex<float>* x, int n,
          std::complex<float>* scratch) {
  plan.inverse_many(x, n, scratch);
  plan.forward_many(x, n, scratch);
}

void columns(const nitho::FftPlan<float>& plan, std::complex<float>* x,
             int width, std::complex<float>* scratch) {
  plan.forward_columns(x, width, scratch);
}

}  // namespace fixture
