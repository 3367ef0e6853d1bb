// Clean R5 fixture: the pruned transforms are used through fft/pruned.hpp,
// and the gather's internals appear only in prose — bitrev_table() and
// inverse_many_prerev(x, n, scratch) in a comment, or a string, must not
// fire.  Plain many-transform calls are fine anywhere.
#include <complex>
#include <string>

#include "fft/pruned.hpp"

namespace fixture {

std::string why() { return "never call forward_many_prerev( outside fft"; }

void rows(const nitho::FftPlan<float>& plan, std::complex<float>* x, int n,
          std::complex<float>* scratch) {
  plan.inverse_many(x, n, scratch);
  plan.forward_many(x, n, scratch);
}

}  // namespace fixture
