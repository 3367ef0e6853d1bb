// R6 fixture (lint_bit_identity --self-test): a miniature simd.hpp.
// `blend` is called from dead_kernel_caller.cpp; `smear` is named there
// only in a comment and a string, so it has no caller and must be flagged.
// `arm_label` is a dispatch control, not a kernel.
#include <cstdint>

namespace fixture::simd {

const char* arm_label();

void blend(float* c, const float* t, std::int64_t n);

void smear(float* c, float a, const float* b, std::int64_t n);

}  // namespace fixture::simd
