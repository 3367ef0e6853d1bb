#pragma once
// Fast lithography (paper §III-C1): after training, the predicted kernels
// are exported as plain complex arrays and used exactly like calibrated TCC
// kernels — no network inference at simulation time.  The hot path is
// mask raster -> cropped-spectrum FFT -> batched SOCS on the AerialEngine
// (DESIGN.md §6), cached here per output resolution.  Above the kernels'
// Nyquist grid (the smallest power of two >= 2*kdim - 1; 64 for a 1 um
// tile's kdim 29) the engine sums the kernels on that grid and resamples
// each mask's intensity once, exactly, to out_px (DESIGN.md §6.5); every
// entry point below goes through it, so they all agree bit for bit.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "litho/engine.hpp"
#include "litho/golden.hpp"
#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "nitho/model.hpp"

namespace nitho {

/// Move-only (the engine cache is not shareable); kernels themselves are
/// cheaply shared with every cached engine and with sibling FastLitho
/// instances built from kernels_shared() (the serving shards do this).
///
/// Memory model: engines are memoized per output resolution in an LRU cache
/// bounded by set_engine_cache_capacity() (default 8).  A cached engine
/// holds only its kernel reference and FFT plan reference: FFT scratch is
/// per thread, not per engine (fft_thread_workspace, DESIGN.md §7.5).  A
/// caller sweeping more distinct out_px values than the capacity evicts
/// the least-recently-used engine; evicted engines stay alive (shared_ptr)
/// until every in-flight call through them finishes, so eviction is safe
/// under concurrency — it only costs a rebuilt engine on the next use of
/// that resolution.
class FastLitho {
 public:
  explicit FastLitho(std::vector<Grid<cd>> kernels,
                     double resist_threshold = 0.25);

  /// Shared-kernel constructor: borrows an existing kernel vector without
  /// copying it.  Sibling instances built this way (one per serving shard)
  /// share the kernel arrays but keep private engine caches, so their
  /// workspaces never contend.
  explicit FastLitho(std::shared_ptr<const std::vector<Grid<cd>>> kernels,
                     double resist_threshold = 0.25);

  /// Detaches the model's current kernel prediction.
  static FastLitho from_model(const NithoModel& model,
                              double resist_threshold = 0.25);

  int kernel_dim() const { return kdim_; }
  int rank() const { return static_cast<int>(kernels_->size()); }
  const std::vector<Grid<cd>>& kernels() const { return *kernels_; }
  /// Shared ownership of the kernel vector, for handing the same arrays to
  /// another FastLitho (or engine) without a copy.
  std::shared_ptr<const std::vector<Grid<cd>>> kernels_shared() const {
    return kernels_;
  }
  double resist_threshold() const { return resist_threshold_; }

  /// Aerial image from a centered cropped spectrum (>= kernel support):
  /// AerialEngine(kernels(), out_px).aerial(spectrum), bit for bit.
  Grid<double> aerial_from_spectrum(const Grid<cd>& spectrum, int out_px) const;

  /// Full pipeline from a mask raster (Fourier coefficients computed via the
  /// cropped FFT; this is what the Fig. 5 throughput bench times).
  Grid<double> aerial_from_mask(const Grid<double>& mask_raster,
                                int out_px) const;

  /// Batched pipeline: spectra for all masks, then one engine sweep over
  /// the (mask, kernel-chunk) task grid.  Each output is bit-identical to
  /// the corresponding aerial_from_mask call; plans, workspaces and pool
  /// dispatch are shared across the whole batch, and the task grid keeps
  /// every pool worker busy even when one mask alone could not.
  std::vector<Grid<double>> aerial_batch(
      const std::vector<Grid<double>>& mask_rasters, int out_px) const;
  /// Pointer variant: batches masks that live in caller-owned storage (the
  /// serving batcher flushes coalesced requests this way without copying).
  std::vector<Grid<double>> aerial_batch(
      const std::vector<const Grid<double>*>& mask_rasters, int out_px) const;

  Grid<double> resist_from_mask(const Grid<double>& mask_raster,
                                int out_px) const;

  /// Bounds the per-resolution engine cache (LRU, >= 1).  Shrinking evicts
  /// the least recently used engines immediately; in-flight calls holding
  /// an evicted engine finish safely on their shared_ptr.
  void set_engine_cache_capacity(int capacity);
  int engine_cache_capacity() const;
  /// Current cache occupancy / resolutions in LRU order (oldest first);
  /// exposed for tests and server stats.
  int engine_cache_size() const;
  std::vector<int> engine_cache_pxs() const;

  /// Kernel persistence — the stored format is identical to real TCC kernel
  /// files, so downstream tools cannot tell learned kernels apart.
  void save(const std::string& path) const;
  static FastLitho load(const std::string& path,
                        double resist_threshold = 0.25);

 private:
  /// Lazily built, memoized engine per output resolution (LRU).  Kernels
  /// are shared (not copied) with every engine; the returned shared_ptr
  /// keeps the engine alive across a concurrent eviction.
  std::shared_ptr<const AerialEngine> engine_for(int out_px) const;

  Grid<cd> spectrum_of(const Grid<double>& mask_raster) const;

  struct EngineCache {
    Mutex mu;
    int capacity NITHO_GUARDED_BY(mu) = 8;
    /// LRU order: front = least recently used, back = most recent.
    std::vector<std::pair<int, std::shared_ptr<const AerialEngine>>> engines
        NITHO_GUARDED_BY(mu);
  };

  /// LRU probe: returns the cached engine for out_px (rotating it to the
  /// most-recently-used slot) or null on a miss.  A named REQUIRES helper
  /// rather than a local lambda — the analysis treats lambda bodies as
  /// separate unannotated functions, so this is the only shape it can check.
  static std::shared_ptr<const AerialEngine> cache_lookup(EngineCache& cache,
                                                          int out_px)
      NITHO_REQUIRES(cache.mu);

  std::shared_ptr<const std::vector<Grid<cd>>> kernels_;
  int kdim_;
  double resist_threshold_;
  std::unique_ptr<EngineCache> engines_;
};

/// Model prediction for one dataset sample at out_px resolution (the
/// evaluation path shared by all benches): the exported kernels on a
/// transient AerialEngine, so above the Nyquist grid it is resampled too.
Grid<double> predict_aerial(const NithoModel& model, const Sample& sample,
                            int out_px);

}  // namespace nitho
