#pragma once
// Runtime-dispatched SIMD kernels under the bit-identity protocol
// (DESIGN.md §13).
//
// Every kernel here has one scalar arm plus (unless NITHO_NO_SIMD) SSE2 and
// AVX2 arms, and every arm produces *bit-identical* output: vector lanes
// only ever span independent elements (pixels, butterfly pairs, B-row
// columns of a fixed A entry), never a reduction, so each element sees
// exactly the scalar arm's operation sequence.  Fused multiply-add is never
// emitted (no FMA intrinsics; -ffp-contract=off project-wide), because
// contraction would round differently from the scalar arms.
//
// Dispatch: the arm is picked once per process from CPUID (AVX2 when the
// CPU has it, else SSE2 on x86-64, else scalar) and read from a relaxed
// atomic on each kernel call.  force_arm() overrides it — tests pin each
// arm against the scalar arm with it, benches use it for same-binary
// scalar-vs-SIMD ratios.  All kernels tolerate unaligned pointers and any
// length (vector body + scalar tail); alignment (common/aligned.hpp) is a
// performance contract only.

#include <complex>
#include <cstdint>

#include "math/cplx.hpp"

namespace nitho::simd {

enum class Arm : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Stable lowercase name ("scalar" / "sse2" / "avx2") for logs and CSVs.
const char* arm_name(Arm arm);

/// The arm every kernel currently dispatches to.
Arm active_arm();

/// Best arm this build + CPU supports (what active_arm() resets to).
Arm detected_arm();

/// Overrides the dispatch arm, clamped to detected_arm(); returns the arm
/// actually installed.  Safe to call concurrently with kernel calls (the
/// kernels read the arm once per call), though concurrent *mixed-arm*
/// output is only meaningful because all arms are bit-identical.
Arm force_arm(Arm arm);

/// False when the build carries only the scalar arm (NITHO_NO_SIMD).
bool simd_compiled();

// ---------------------------------------------------------------------------
// Kernels.  Lanes = independent elements; see each comment for the exact
// scalar arithmetic the vector arms replicate.
// ---------------------------------------------------------------------------

/// dst[i] = a[i] * b[i] (complex multiply; dst must not alias a or b).
/// Every arm computes (ar*br - ai*bi, ar*bi + ai*br) — std::complex's
/// operator* for finite inputs, without its Annex-G recovery of non-finite
/// products, so ±Inf lanes give the same answer on every arm.
void cmul(cd* dst, const cd* a, const cd* b, std::int64_t n);
void cmul(cf* dst, const cf* a, const cf* b, std::int64_t n);

/// a[i] *= b[i] (complex multiply in place).
void cmul_inplace(cd* a, const cd* b, std::int64_t n);
void cmul_inplace(cf* a, const cf* b, std::int64_t n);

/// acc[i] += e[2i]^2 + e[2i+1]^2 over an interleaved complex plane — the
/// per-pixel coherent-intensity accumulate of the batched training ops
/// over stored field planes.  Where no field is kept, the same expression
/// rides on the last column pass instead (fft_rows_* with an `acc`).
void abs2_accum(float* acc, const float* e, std::int64_t n);

/// Rows per gemm_panel call (the register-blocked microkernel height).
inline constexpr std::int64_t kGemmPanelRows = 4;

/// Dense GEMM panel, the one GEMM microkernel (nn::gemm_dense): for each
/// row r in [0, mr), mr <= kGemmPanelRows,
///   c[r*ldc + j] += fold over p in [0, k) of a[r*ars + p*aps] * b[p*ldb + j]
/// with the p fold serial per element.  The scalar arm runs, per row, p
/// ascending and then j; the vector arms are bit-identical to it (lanes
/// span j only; each element sees the same mul-then-add sequence in
/// ascending p, just held in registers between folds instead of
/// round-tripping memory, which cannot change a single rounding in fp32).
/// `ars`/`aps` are A's row/p strides, so the one kernel serves every A
/// layout (row-major, transposed, or one plane of an interleaved complex
/// tensor).
void gemm_panel(float* c, std::int64_t ldc, const float* a, std::int64_t ars,
                std::int64_t aps, const float* b, std::int64_t ldb,
                std::int64_t mr, std::int64_t k, std::int64_t n);

/// g[2i] += (2 * e[2i]) * gy[i]; g[2i+1] += (2 * e[2i+1]) * gy[i] — the
/// batched abs²-sum backward (d|z|²/dz = 2z against a real upstream pixel
/// grad).  Lanes span pixels i; the scalar operand order (double the field
/// value, then scale by the pixel grad, then accumulate) is kept exactly.
void abs2_backprop(float* g, const float* e, const float* gy, std::int64_t n);

/// One Adam update over n parameters, exactly the optimizer's scalar loop:
///   m[i] = beta1 * m[i] + (1 - beta1) * g[i];
///   v[i] = beta2 * v[i] + ((1 - beta2) * g[i]) * g[i];
///   p[i] -= (lr * (m[i] / bc1)) / (sqrt(v[i] / bc2) + eps);
/// Lanes span parameters i.  Every operation involved — mul, add, sub, div,
/// sqrt — is IEEE exactly-rounded in both scalar and vector forms (and FMA
/// is never emitted), so the vector arms are bit-identical by construction.
void adam_update(float* p, float* m, float* v, const float* g, std::int64_t n,
                 float beta1, float beta2, float bc1, float bc2, float lr,
                 float eps);

/// One radix-2 stage over the whole transform: for every block of 2*half
/// elements, butterflies x[base+k] / x[base+half+k] with twiddle tw[k]
/// (k in [0, half)).  tw is the stage's contiguous twiddle table, already
/// conjugated for inverse transforms; len must be a multiple of 2*half.
/// Scalar arithmetic per butterfly (the complex product in its 4-mul/2-add
/// form, the same on every arm and for non-finite inputs too):
///   t = x[base+half+k] * tw[k];
///   x[base+half+k] = x[base+k] - t;
///   x[base+k] += t;
/// Lanes span k within a block — butterflies touch disjoint elements.  The
/// transforms call it only for an odd last stage; every other stage runs
/// inside fft_stage_pair.
void fft_stage(std::complex<double>* x, int len, int half,
               const std::complex<double>* tw);
void fft_stage(std::complex<float>* x, int len, int half,
               const std::complex<float>* tw);

/// Two consecutive radix-2 stages in one pass: fft_stage(x, len, half, tw)
/// followed by fft_stage(x, len, 2*half, tw2), bit for bit.  len must be a
/// multiple of 4*half.  The vector arms walk blocks of 4*half elements and
/// keep each radix-2² group x[base+k + j*half] (j = 0..3) in registers
/// between the two stages: every element still sees the same butterflies
/// with the same operands, only the memory round trip between the stages
/// is gone.  Lanes span k (or whole blocks when half is below the vector
/// width), never a reduction.
void fft_stage_pair(std::complex<double>* x, int len, int half,
                    const std::complex<double>* tw,
                    const std::complex<double>* tw2);
void fft_stage_pair(std::complex<float>* x, int len, int half,
                    const std::complex<float>* tw,
                    const std::complex<float>* tw2);

/// fft_stage across the columns of a row-major [rows x width] block: for
/// every block of 2*half rows, row base+k and row base+half+k are
/// butterflied element by element with the one twiddle tw[k], broadcast
/// across the row.  rows must be a multiple of 2*half.  Column j sees
/// exactly the butterflies fft_stage runs on a contiguous copy of it (same
/// formula, same operands); lanes span j, never a reduction.  With a
/// non-null `scale`, every element the stage writes is then multiplied by
/// scale[0] and the product by scale[1], per component — the same two
/// roundings as two separate scaling passes over the block (an inverse
/// transform's last stage folds in its 1/n and a caller's factor).
///
/// With a non-null `acc` (row-major [rows x width] reals) the pass is a
/// last pass with an intensity epilogue: instead of storing output (r, j)
/// it adds re*re + im*im of it to acc[r*width + j] — abs2_accum's
/// expression and operand order, so the sum is the bits a stored field
/// followed by an accumulate would give.  x is then scratch: its contents
/// afterwards are unspecified.
void fft_rows_stage(std::complex<double>* x, int rows, int width, int half,
                    const std::complex<double>* tw, const double* scale,
                    double* acc);
void fft_rows_stage(std::complex<float>* x, int rows, int width, int half,
                    const std::complex<float>* tw, const float* scale,
                    float* acc);

/// fft_rows_stage(x, rows, width, half, tw) followed by
/// fft_rows_stage(x, rows, width, 2*half, tw2, scale, acc), bit for bit —
/// the column-block form of fft_stage_pair.  rows must be a multiple of
/// 4*half.  Rows j, j+half, j+2*half, j+3*half form one radix-2² group with
/// twiddles tw[k], tw2[k] and tw2[half+k]; the vector arms keep a group's
/// lanes in registers between the two stages, the scaling and the
/// intensity epilogue.
void fft_rows_pair(std::complex<double>* x, int rows, int width, int half,
                   const std::complex<double>* tw,
                   const std::complex<double>* tw2, const double* scale,
                   double* acc);
void fft_rows_pair(std::complex<float>* x, int rows, int width, int half,
                   const std::complex<float>* tw,
                   const std::complex<float>* tw2, const float* scale,
                   float* acc);

/// fft_rows_pair on a block whose input rows are read through a row table
/// instead of from x — the first pass of a column transform whose input
/// rows already sit elsewhere: input row r is src[r] (width elements), and
/// a null src[r] is an all-zero row, read as +0 on every arm.  The outputs
/// go to x (or, with `acc`, into the intensity epilogue), so the result is
/// the bits of copying each row into x — zero rows as +0 — and running
/// fft_rows_pair.  src[r] may be x's own row r, but no other row of x.
void fft_rows_pair_gather(std::complex<double>* x,
                          const std::complex<double>* const* src, int rows,
                          int width, int half, const std::complex<double>* tw,
                          const std::complex<double>* tw2,
                          const double* scale, double* acc);
void fft_rows_pair_gather(std::complex<float>* x,
                          const std::complex<float>* const* src, int rows,
                          int width, int half, const std::complex<float>* tw,
                          const std::complex<float>* tw2, const float* scale,
                          float* acc);

}  // namespace nitho::simd
