#pragma once
// Fast Fourier transforms.
//
// FftPlan precomputes twiddle tables for a fixed length: radix-2 for powers
// of two, Bluestein's chirp-z algorithm for everything else, so any size is
// supported (kernel supports are odd per Eq. 10 of the paper).  Forward
// transforms are unnormalized (matching the Hopkins conventions in
// DESIGN.md §5); inverse transforms scale by 1/n.
//
// Hot paths that transform many same-sized grids (the AerialEngine,
// DESIGN.md §6, and the batched nn ops, §8) pass an Fft2Workspace so no
// per-transform heap allocation happens: the workspace holds the gather
// buffers and the Bluestein convolution scratch that the plain entry points
// otherwise allocate per call.  The pruned crop <-> grid transforms these
// hot paths share live in fft/pruned.hpp.

#include <complex>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "math/cplx.hpp"
#include "math/grid.hpp"

namespace nitho {

/// Precomputed 1-D FFT of a fixed size.  Immutable after construction and
/// safe to share across threads.
template <typename R>
class FftPlan {
 public:
  explicit FftPlan(int n);
  ~FftPlan();
  FftPlan(FftPlan&&) noexcept;
  FftPlan& operator=(FftPlan&&) noexcept;
  FftPlan(const FftPlan&) = delete;
  FftPlan& operator=(const FftPlan&) = delete;

  int size() const;

  /// Complex elements of external scratch the workspace overloads need:
  /// 0 for power-of-two sizes, the Bluestein convolution length otherwise.
  int scratch_size() const;

  /// In-place unnormalized DFT with exponent e^{-2*pi*i*jk/n}.
  void forward(std::complex<R>* x) const;
  /// In-place inverse DFT (exponent +) scaled by 1/n.
  void inverse(std::complex<R>* x) const;

  /// Workspace overloads: bit-identical to the plain calls, but any
  /// Bluestein scratch comes from `scratch` (>= scratch_size() elements;
  /// may be null when scratch_size() == 0) instead of the heap.
  void forward(std::complex<R>* x, std::complex<R>* scratch) const;
  void inverse(std::complex<R>* x, std::complex<R>* scratch) const;

  /// `count` independent in-place transforms over contiguous length-size()
  /// segments starting at x.  Bit-identical to calling the single-segment
  /// overloads on each segment in turn: segments are bit-reversed
  /// individually, then each pair of radix-2 stages runs as ONE
  /// simd::fft_stage_pair call across all segments (an odd last stage as
  /// one simd::fft_stage call) — a pass's butterfly blocks span 4*half
  /// (2*half) elements, a power of two no larger than size(), so no block
  /// ever straddles a segment boundary and every segment sees exactly the
  /// per-segment stage sequence.  This amortizes per-transform dispatch for
  /// the batched training ops' many small row/column transforms (DESIGN.md
  /// §13.2).
  /// Bluestein sizes fall back to the per-segment path over `scratch`.
  void forward_many(std::complex<R>* x, int count,
                    std::complex<R>* scratch) const;
  void inverse_many(std::complex<R>* x, int count,
                    std::complex<R>* scratch) const;

  /// Input permutation of the radix-2 path, or nullptr for Bluestein sizes:
  /// the transforms above first swap x[i] <-> x[table[i]] within each
  /// segment.  Callers that BUILD a transform's input by scatter can write
  /// position i to table[i] instead and call the *_prerev entry points,
  /// which skip that permutation pass — the permutation is pure data
  /// movement, so results stay bit-identical (the batched training ops'
  /// gather paths, DESIGN.md §13.2).
  const int* bitrev_table() const;

  /// forward_many/inverse_many over segments whose elements were written in
  /// bit-reversed order (see bitrev_table(); radix-2 sizes only).
  void forward_many_prerev(std::complex<R>* x, int count,
                           std::complex<R>* scratch) const;
  void inverse_many_prerev(std::complex<R>* x, int count,
                           std::complex<R>* scratch) const;

  /// In-place forward transforms of the `width` columns of a row-major
  /// [size() x width] block (column j is x[j], x[width + j], ...).
  /// Bit-identical to gathering each column, calling the single-segment
  /// overload on it and scattering it back: for radix-2 sizes each stage
  /// pair runs as ONE simd::fft_rows_pair call across whole rows (an odd
  /// last stage as one simd::fft_rows_stage call), so every column sees its
  /// own transform's butterflies on the same operands, and no column is
  /// ever gathered.  Bluestein sizes run the single-segment path on each
  /// column in place, `width` elements apart, over `scratch`.
  void forward_columns(std::complex<R>* x, int width,
                       std::complex<R>* scratch) const;

  /// forward_columns over a block whose ROWS were written in bit-reversed
  /// order: input row i sits at row bitrev_table()[i] (radix-2 sizes only).
  void forward_columns_prerev(std::complex<R>* x, int width,
                              std::complex<R>* scratch) const;

  /// Inverse column transforms of a [size() x width] block whose input
  /// rows are read through a row table instead of from x: rows[p] is the
  /// input row that sits at block position p — input row i at
  /// bitrev_table()[i] on radix-2 sizes, at i on Bluestein sizes — or null
  /// for an all-zero row.  Every element of x is written with the inverse
  /// (1/n applied) times `rescale`, a second rounding as a separate pass
  /// would make (band_inverse's s*s).  Radix-2 sizes from 4 up read the
  /// table in the first stage pair (simd::fft_rows_pair_gather), so no row
  /// is ever copied into x, and fold both multiplies into the last pass;
  /// Bluestein sizes and sizes 1 and 2 copy the rows into x first (null
  /// rows as +0).  The bits equal placing the rows and transforming
  /// in place.  rows[p] may be x's own row p, but no other row of x.
  void inverse_columns_gather(const std::complex<R>* const* rows,
                              std::complex<R>* x, int width,
                              std::complex<R>* scratch, R rescale) const;

  /// inverse_columns_gather with an intensity epilogue: the output is not
  /// stored; the last pass adds re*re + im*im of output (p, j) to
  /// acc[p*width + j] (simd::fft_rows_* with an `acc`), the bits of
  /// storing it and accumulating with the same expression.  x is the
  /// passes' work block: its contents afterwards are unspecified.
  void intensity_columns_gather(const std::complex<R>* const* rows,
                                std::complex<R>* x, int width,
                                std::complex<R>* scratch, R rescale,
                                R* acc) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide plan caches (thread-safe; plans are built once per size).
const FftPlan<double>& fft_plan_d(int n);
const FftPlan<float>& fft_plan_f(int n);

/// Reusable scratch for the workspace-taking 2-D transforms: a column
/// buffer (the dense transforms' column gather, the pruned transforms'
/// staging row and crop blocks), the pruned transforms' band rows and the
/// row table their column pass reads them through (fft/pruned.hpp; the
/// band buffer also holds fft2_crop_centered's row pair), Bluestein
/// scratch and one grid plane, each sized on demand and retained across
/// calls.  Not thread-safe — use one workspace per thread.  Templated on
/// the scalar type so the double-precision litho substrate and the float
/// autodiff ops (nn/ops_fft) share one implementation.
template <typename R>
class Fft2WorkspaceT {
 public:
  /// Column buffer holding `rows` elements (grown, never shrunk).
  std::complex<R>* col_buffer(int rows);
  /// Band-row buffer holding `elems` elements (grown, never shrunk).
  std::complex<R>* band_buffer(int elems);
  /// Scratch sized for `plan` (nullptr when the plan needs none).
  std::complex<R>* scratch_for(const FftPlan<R>& plan);
  /// Row-pointer table holding `n` entries (grown, never shrunk): the
  /// band rows' grid positions for the placement-free column pass.
  const std::complex<R>** row_table(int n);
  /// Whole-grid plane holding `elems` elements (grown, never shrunk).
  /// band_intensity runs its column passes in it (the field is never
  /// stored: its |.|^2 leaves the last pass), so it holds nothing across
  /// that call.  No other transform here touches it: a caller may hold a
  /// plane in it across band_inverse / crop_forward calls on this
  /// workspace, or hand it to band_inverse as the output plane, whose
  /// first column pass writes every row straight from the band rows.
  std::complex<R>* plane_buffer(int elems);

 private:
  // Aligned so the SIMD butterfly/pointwise kernels run on cache-line
  // boundaries (common/aligned.hpp; alignment asserted in test_simd).
  aligned_vector<std::complex<R>> col_;
  aligned_vector<std::complex<R>> band_;
  aligned_vector<std::complex<R>> scratch_;
  aligned_vector<std::complex<R>> plane_;
  std::vector<const std::complex<R>*> rows_;
};

using Fft2Workspace = Fft2WorkspaceT<double>;
using Fft2WorkspaceF = Fft2WorkspaceT<float>;

/// The calling thread's workspace (one per thread and scalar type, grown to
/// the largest transform the thread has run).  Hot paths call this inside a
/// parallel_for task and hold it only for that task: tasks never nest and
/// nothing that holds it calls parallel_for, so no two users ever share it.
template <typename R>
Fft2WorkspaceT<R>& fft_thread_workspace();

/// 2-D transforms over Grid<complex>: rows then columns.
void fft2_inplace(Grid<cd>& g);
void ifft2_inplace(Grid<cd>& g);
/// Workspace variants: bit-identical results, zero heap allocation per call
/// once the workspace has warmed up.
void fft2_inplace(Grid<cd>& g, Fft2Workspace& ws);
void ifft2_inplace(Grid<cd>& g, Fft2Workspace& ws);
/// Dense in-place 2-D DFT over an interleaved [h, w, 2] float plane, rows
/// then columns.  inverse=false: unnormalized forward (sign -);
/// inverse=true: unnormalized inverse (sign +), i.e. h*w times the
/// normalized inverse.  The FNO mixing layer (nn::spectral_conv2d) runs on
/// it; the hot nn ops use the pruned transforms of fft/pruned.hpp instead.
void fft2_plane(float* plane, int h, int w, bool inverse);
Grid<cd> fft2(const Grid<cd>& g);
Grid<cd> ifft2(const Grid<cd>& g);
/// Forward transform of a real image.
Grid<cd> fft2(const Grid<double>& g);

/// Elementwise |z|^2 -> real grid.
Grid<double> abs2(const Grid<cd>& g);
/// Real parts of a complex grid.
Grid<double> real_part(const Grid<cd>& g);

}  // namespace nitho
