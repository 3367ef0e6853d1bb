#include "nitho/fast_litho.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "fft/spectral.hpp"
#include "io/tensor_io.hpp"
#include "litho/simulator.hpp"
#include "metrics/metrics.hpp"

namespace nitho {

FastLitho::FastLitho(std::vector<Grid<cd>> kernels, double resist_threshold)
    : FastLitho(std::make_shared<const std::vector<Grid<cd>>>(
                    std::move(kernels)),
                resist_threshold) {}

FastLitho::FastLitho(std::shared_ptr<const std::vector<Grid<cd>>> kernels,
                     double resist_threshold)
    : kernels_(std::move(kernels)),
      resist_threshold_(resist_threshold),
      engines_(std::make_unique<EngineCache>()) {
  check(kernels_ != nullptr && !kernels_->empty(),
        "FastLitho needs at least one kernel");
  kdim_ = (*kernels_)[0].rows();
  // Fail closed: a NaN/Inf kernel (corrupt file, diverged model) would be
  // served as NaN aerials.  Every entry — load, from_model, a snapshot
  // handed to LithoServer::swap_kernels — builds through here, so a bad
  // set throws before anything is published.
  for (const auto& k : *kernels_) {
    check(k.rows() == kdim_ && k.cols() == kdim_, "kernel shape mismatch");
    check(std::all_of(k.begin(), k.end(),
                      [](const cd& z) {
                        return std::isfinite(z.real()) &&
                               std::isfinite(z.imag());
                      }),
          "FastLitho: non-finite kernel value");
  }
}

FastLitho FastLitho::from_model(const NithoModel& model,
                                double resist_threshold) {
  return FastLitho(model.export_kernels(), resist_threshold);
}

std::shared_ptr<const AerialEngine> FastLitho::cache_lookup(EngineCache& cache,
                                                            int out_px) {
  auto& engines = cache.engines;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    if (engines[i].first == out_px) {
      // Touch: rotate the hit to the back (most recently used).
      std::rotate(engines.begin() + static_cast<std::ptrdiff_t>(i),
                  engines.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  engines.end());
      return engines.back().second;
    }
  }
  return nullptr;
}

std::shared_ptr<const AerialEngine> FastLitho::engine_for(int out_px) const {
  {
    LockGuard lk(engines_->mu);
    if (auto hit = cache_lookup(*engines_, out_px)) return hit;
  }
  // Miss: build outside the lock so concurrent callers (warm hits at other
  // resolutions included) are not stalled behind the plan/scatter setup,
  // then double-check — a racing builder may have inserted first, in which
  // case this copy is simply dropped (engines are immutable and cheap next
  // to the kernels they share).
  auto engine = std::make_shared<const AerialEngine>(kernels_, out_px);
  LockGuard lk(engines_->mu);
  if (auto hit = cache_lookup(*engines_, out_px)) return hit;
  auto& engines = engines_->engines;
  engines.emplace_back(out_px, engine);
  while (static_cast<int>(engines.size()) > engines_->capacity) {
    engines.erase(engines.begin());  // LRU lives at the front
  }
  return engine;
}

void FastLitho::set_engine_cache_capacity(int capacity) {
  check(capacity >= 1, "engine cache capacity must be >= 1");
  LockGuard lk(engines_->mu);
  engines_->capacity = capacity;
  auto& engines = engines_->engines;
  while (static_cast<int>(engines.size()) > capacity) {
    engines.erase(engines.begin());
  }
}

int FastLitho::engine_cache_capacity() const {
  LockGuard lk(engines_->mu);
  return engines_->capacity;
}

int FastLitho::engine_cache_size() const {
  LockGuard lk(engines_->mu);
  return static_cast<int>(engines_->engines.size());
}

std::vector<int> FastLitho::engine_cache_pxs() const {
  LockGuard lk(engines_->mu);
  std::vector<int> pxs;
  pxs.reserve(engines_->engines.size());
  for (const auto& [px, engine] : engines_->engines) pxs.push_back(px);
  return pxs;
}

Grid<cd> FastLitho::spectrum_of(const Grid<double>& mask_raster) const {
  Grid<cd> spectrum = fft2_crop_centered(mask_raster, kdim_);
  const double inv_n2 = 1.0 / (static_cast<double>(mask_raster.rows()) *
                               mask_raster.cols());
  for (auto& z : spectrum) z *= inv_n2;
  return spectrum;
}

Grid<double> FastLitho::aerial_from_spectrum(const Grid<cd>& spectrum,
                                             int out_px) const {
  return engine_for(out_px)->aerial(spectrum);
}

Grid<double> FastLitho::aerial_from_mask(const Grid<double>& mask_raster,
                                         int out_px) const {
  return engine_for(out_px)->aerial(spectrum_of(mask_raster));
}

std::vector<Grid<double>> FastLitho::aerial_batch(
    const std::vector<Grid<double>>& mask_rasters, int out_px) const {
  std::vector<const Grid<double>*> ptrs;
  ptrs.reserve(mask_rasters.size());
  for (const Grid<double>& m : mask_rasters) ptrs.push_back(&m);
  return aerial_batch(ptrs, out_px);
}

std::vector<Grid<double>> FastLitho::aerial_batch(
    const std::vector<const Grid<double>*>& mask_rasters, int out_px) const {
  for (const Grid<double>* m : mask_rasters) {
    check(m != nullptr, "aerial_batch: null mask");
  }
  // Phase 1: mask spectra across the pool (the row-paired cropped FFT is
  // the dominant per-mask cost at production raster sizes), then phase 2:
  // one engine sweep over every (mask, kernel-chunk) task.
  std::vector<Grid<cd>> spectra(mask_rasters.size());
  parallel_for(static_cast<std::int64_t>(mask_rasters.size()),
               [&](std::int64_t i) {
                 spectra[static_cast<std::size_t>(i)] =
                     spectrum_of(*mask_rasters[static_cast<std::size_t>(i)]);
               });
  return engine_for(out_px)->aerial_batch(spectra);
}

Grid<double> FastLitho::resist_from_mask(const Grid<double>& mask_raster,
                                         int out_px) const {
  return binarize(aerial_from_mask(mask_raster, out_px), resist_threshold_);
}

void FastLitho::save(const std::string& path) const {
  save_kernels(path, *kernels_);
}

FastLitho FastLitho::load(const std::string& path, double resist_threshold) {
  return FastLitho(load_kernels(path), resist_threshold);
}

Grid<double> predict_aerial(const NithoModel& model, const Sample& sample,
                            int out_px) {
  // A transient owning engine: export_kernels() materializes fresh kernel
  // grids anyway, so the engine adopts them instead of copying.  The engine
  // reads the kernel-support window of the sample spectrum in place (no
  // explicit center_crop).
  const AerialEngine engine(model.export_kernels(), out_px);
  return engine.aerial(sample.spectrum);
}

}  // namespace nitho
