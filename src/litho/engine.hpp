#pragma once
// Batched SOCS aerial-image engine (DESIGN.md §6).
//
// AerialEngine fixes one (kernel set, out_px) configuration.  It images on
// sim_px = min(out_px, m), where m is the smallest radix-2 grid of at
// least 2*kdim - 1 points: the intensity of kdim-wide kernels has a band
// of 2*kdim - 1 frequencies, so its samples on m fix it everywhere
// (DESIGN.md §6.5).  Evaluating a kernel is a fused crop ->
// kernel-multiply -> embed/shift scatter -> pruned inverse FFT -> |.|^2
// (fft/pruned.hpp band_intensity) on the calling thread's FFT workspace,
// with zero heap allocation per kernel; batches of mask spectra are swept
// in a single parallel_for over (mask, kernel-chunk) tasks, then a second
// one over masks reduces each mask's chunk partials in chunk order and,
// when sim_px < out_px, resamples the sum exactly to out_px
// (band_resample, band 2*kdim - 1).
//
// On the sim_px grid the floating-point result is bit-identical to the
// historical per-mask socs_aerial at sim_px: the same chunked ordered
// reduction (grain 8) is used, the scatter feeds the inverse transform
// exactly the grid ifftshift(center_embed(K . c, s, s)) would hold, and
// rows of that grid that are structurally zero are skipped — a pruning
// that cannot change any output bit because zero rows only ever enter the
// column pass additively and |.|^2 erases the sign of zero (DESIGN.md
// §6.3).  The column pass runs across whole rows of the field plane,
// reading the band rows in place and adding |.|^2 from its last pass;
// each column still sees exactly the arithmetic of its own strided
// transform.  When out_px <= m the output is that sum; above m it is
// band_resample of it, equal to the legacy loop at out_px to rounding.
//
// Thread-safety: aerial / aerial_batch may be called concurrently from
// multiple threads (each task uses its own thread's FFT workspace,
// fft_thread_workspace), but not from inside a parallel_for callback — the
// shared thread pool does not nest.  Each thread that has run a task keeps
// one workspace for its lifetime, whichever engines it served: a
// kdim x sim_px band plus a field plane of complex doubles (out_px x
// out_px once it has resampled), at the largest sizes it has seen.

#include <memory>
#include <vector>

#include "fft/fft.hpp"
#include "math/cplx.hpp"
#include "math/grid.hpp"

namespace nitho {

class AerialEngine {
 public:
  /// Owning constructor: the engine keeps a private copy of the kernels.
  /// All kernels must be square with one common odd-or-even dimension, and
  /// out_px must fit the kernel support.
  AerialEngine(std::vector<Grid<cd>> kernels, int out_px);

  /// Shared-ownership constructor.  Pass an aliasing shared_ptr (empty
  /// deleter) to borrow a kernel vector that outlives the engine without
  /// copying it — socs_aerial builds its transient engines this way.
  AerialEngine(std::shared_ptr<const std::vector<Grid<cd>>> kernels,
               int out_px);

  AerialEngine(const AerialEngine&) = delete;
  AerialEngine& operator=(const AerialEngine&) = delete;

  int kernel_dim() const { return kdim_; }
  int out_px() const { return out_px_; }
  /// The grid the kernels are summed on: min(out_px, m), m the smallest
  /// power of two >= 2*kdim - 1.
  int sim_px() const { return sim_px_; }
  int rank() const { return static_cast<int>(kernels_->size()); }
  const std::vector<Grid<cd>>& kernels() const { return *kernels_; }

  /// Aerial intensity of one centered cropped spectrum (>= kernel support).
  /// Bit-identical to socs_aerial(kernels(), spectrum, out_px()), and to
  /// band_resample(AerialEngine(kernels(), sim_px()).aerial(spectrum),
  /// 2*kernel_dim() - 1, out_px()) when sim_px() < out_px().
  Grid<double> aerial(const Grid<cd>& spectrum) const;

  /// Batched evaluation: one intensity grid per input spectrum.  The
  /// (mask, kernel-chunk) task grid keeps every pool worker busy even when
  /// a single mask has fewer chunks than workers; each mask's reduction
  /// stays in chunk order, so results match aerial() bit for bit.
  std::vector<Grid<double>> aerial_batch(
      const std::vector<Grid<cd>>& spectra) const;
  std::vector<Grid<double>> aerial_batch(
      const std::vector<const Grid<cd>*>& spectra) const;

 private:
  void accumulate_kernel(const Grid<cd>& kernel, const Grid<cd>& spectrum,
                         int r0, int c0, Grid<double>& local) const;

  std::shared_ptr<const std::vector<Grid<cd>>> kernels_;
  int kdim_ = 0;
  int out_px_ = 0;
  int sim_px_ = 0;
  /// The sim_px plan.  Set after the configuration checks pass (never null
  /// afterwards), so a bad out_px fails with the engine's own diagnostics
  /// and no plan is inserted into the process-wide cache.
  const FftPlan<double>* sim_plan_ = nullptr;
};

/// Ordered sum of per-chunk partial intensities.  Shared by the engine and
/// abbe_aerial so the two reductions cannot drift apart; empty partials
/// (chunks that contributed nothing) are skipped.
Grid<double> reduce_ordered(const Grid<double>* partials, std::size_t count,
                            int out_px);

}  // namespace nitho
