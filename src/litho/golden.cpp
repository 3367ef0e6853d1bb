#include "litho/golden.hpp"

#include "common/check.hpp"
#include "fft/fft.hpp"
#include "fft/spectral.hpp"
#include "layout/raster.hpp"
#include "optics/resolution.hpp"

namespace nitho {

GoldenEngine::GoldenEngine(LithoConfig cfg) : cfg_(cfg) {
  check(cfg_.tile_nm > 0 && cfg_.raster_px > 0, "bad tile configuration");
  check(cfg_.tile_nm % cfg_.raster_px == 0 || cfg_.raster_px % cfg_.tile_nm == 0 ||
            cfg_.raster_px == cfg_.tile_nm,
        "raster must evenly sample the tile");
  check(cfg_.spectrum_crop % 2 == 1, "spectrum crop must be odd");
  kdim_ = ::nitho::kernel_dim(cfg_.tile_nm, cfg_.optics.wavelength_nm,
                              cfg_.optics.na);
  check(kdim_ <= cfg_.spectrum_crop,
        "spectrum crop smaller than the physical kernel support");
  check(2 * (kdim_ / 2) < cfg_.sim_px,
        "simulation grid cannot hold the kernel band");
  // sim_px >= 1 from here on, so both checks below fail closed on a zero
  // or negative analysis grid before make_sample could divide by it.
  check(cfg_.analysis_px >= cfg_.sim_px,
        "analysis grid must be at least the simulation grid");
  check(cfg_.raster_px % cfg_.analysis_px == 0,
        "analysis grid must evenly divide the mask raster");
  tcc_ = build_tcc(cfg_.optics, cfg_.tile_nm, kdim_);
  kernels_ = socs_decompose(tcc_, kdim_, cfg_.rank_tol, cfg_.max_rank);
  // Owning copy so the engine survives moves of this GoldenEngine.
  aerial_engine_ =
      std::make_unique<AerialEngine>(kernels_.kernels, cfg_.sim_px);
}

Sample GoldenEngine::make_sample(const Grid<double>& mask_raster) const {
  check(mask_raster.rows() == cfg_.raster_px &&
            mask_raster.cols() == cfg_.raster_px,
        "mask raster resolution mismatch");
  Sample s;
  // Fourier coefficients: DFT / N^2 so that DC equals the mean transmission.
  s.spectrum = fft2_crop_centered(mask_raster, cfg_.spectrum_crop);
  const double inv_n2 =
      1.0 / (static_cast<double>(cfg_.raster_px) * cfg_.raster_px);
  for (auto& z : s.spectrum) z *= inv_n2;

  s.mask_coarse =
      downsample_area(mask_raster, cfg_.raster_px / cfg_.analysis_px);

  const Grid<double> aerial_sim = aerial_engine_->aerial(s.spectrum);
  s.aerial = cfg_.sim_px == cfg_.analysis_px
                 ? aerial_sim
                 : spectral_resample(aerial_sim, cfg_.analysis_px,
                                     cfg_.analysis_px);
  s.resist = develop(s.aerial, cfg_.resist);
  return s;
}

Dataset GoldenEngine::make_dataset(DatasetKind kind, int count,
                                   std::uint64_t seed) const {
  check(count >= 0, "negative dataset size");
  Dataset ds;
  ds.kind = kind;
  ds.name = dataset_name(kind);
  ds.samples.reserve(static_cast<std::size_t>(count));
  Rng rng(seed ^ (0x1000u + static_cast<std::uint64_t>(kind)));
  const int pixel_nm = cfg_.tile_nm / cfg_.raster_px;
  for (int i = 0; i < count; ++i) {
    const Layout layout = make_layout(kind, cfg_.tile_nm, rng);
    ds.samples.push_back(make_sample(rasterize(layout, pixel_nm)));
  }
  return ds;
}

Grid<double> GoldenEngine::reference_aerial(const Grid<double>& mask_raster,
                                            int out_px, int crop) const {
  // Deliberately takes the expensive path end to end: wide spectrum window,
  // per-source-point Abbe imaging directly at the output resolution.
  if (out_px <= 0) out_px = cfg_.analysis_px;
  if (crop <= 0) crop = cfg_.spectrum_crop;
  check(crop <= mask_raster.rows() && crop < out_px,
        "reference crop must fit the raster and output grid");
  Grid<cd> spectrum = fft2_crop_centered(mask_raster, crop);
  const double inv_n2 =
      1.0 / (static_cast<double>(cfg_.raster_px) * cfg_.raster_px);
  for (auto& z : spectrum) z *= inv_n2;
  return abbe_aerial(cfg_.optics, cfg_.tile_nm, spectrum, out_px);
}

}  // namespace nitho
