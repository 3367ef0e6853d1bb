// R6 fixture (lint_bit_identity --self-test): the only library caller of
// the dead_kernel_simd.hpp kernels.  It calls blend; smear(c, 2.0f, t, n)
// appears only in this comment and in the string below.
#include "dead_kernel_simd.hpp"

namespace fixture {

const char* note() { return "smear(c, a, b, n) is not called"; }

void mix(float* c, const float* t, std::int64_t n) {
  simd::blend(c, t, n);
}

}  // namespace fixture
