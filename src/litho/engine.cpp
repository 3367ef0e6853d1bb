#include "litho/engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "fft/pruned.hpp"
#include "fft/spectral.hpp"

namespace nitho {
namespace {

// Kernel-chunk grain of the ordered reduction.  Fixed (not tuned per run)
// so the summation order — and therefore every output bit — is independent
// of worker count and scheduling.  Must stay in sync with DESIGN.md §6.1.
constexpr std::int64_t kGrain = 8;

// Cap on live per-chunk partial intensities during a batch sweep.  Large
// batches are processed in mask windows sized to stay under this, so peak
// memory is outputs + one window instead of batch * ceil(rank/8) grids.
// Windowing cannot change output bits: each mask's chunk partials and
// their reduction order are identical regardless of which window ran it.
constexpr std::int64_t kMaxPartialBytes = 256 << 20;

// Smallest radix-2 grid that holds the intensity band of kdim-wide
// kernels, 2*kdim - 1 frequencies, without aliasing (DESIGN.md §6.5).
int nyquist_px(int kdim) {
  int m = 1;
  while (m < 2 * kdim - 1) m *= 2;
  return m;
}

}  // namespace

AerialEngine::AerialEngine(std::vector<Grid<cd>> kernels, int out_px)
    : AerialEngine(std::make_shared<const std::vector<Grid<cd>>>(
                       std::move(kernels)),
                   out_px) {}

AerialEngine::AerialEngine(
    std::shared_ptr<const std::vector<Grid<cd>>> kernels, int out_px)
    : kernels_(std::move(kernels)), out_px_(out_px) {
  check(kernels_ != nullptr && !kernels_->empty(),
        "AerialEngine needs at least one kernel");
  kdim_ = (*kernels_)[0].rows();
  for (const Grid<cd>& k : *kernels_) {
    check(k.rows() == kdim_ && k.cols() == kdim_, "kernel shape mismatch");
  }
  check(out_px_ >= kdim_, "output grid must fit the kernel support");
  sim_px_ = std::min(out_px_, nyquist_px(kdim_));
  sim_plan_ = &fft_plan_d(sim_px_);
}

void AerialEngine::accumulate_kernel(const Grid<cd>& kernel,
                                     const Grid<cd>& spectrum, int r0, int c0,
                                     Grid<double>& local) const {
  // Fused crop -> kernel-multiply -> embed/shift -> pruned inverse 2-D
  // transform -> |.|^2 (DESIGN.md §6.2-§6.3): each band row is the
  // elementwise product of a kernel row and the cropped spectrum row.  The
  // field is unnormalized (the Hopkins convention, DESIGN.md §5.1) and
  // never stored: the last column pass adds its coherent intensity pixel
  // by pixel, so every pixel sees the same square-and-add in the same
  // kernel order.
  band_intensity(
      *sim_plan_, kdim_, kdim_, fft_thread_workspace<double>(),
      [&](int r, cd* row) {
        simd::cmul(row, kernel.row(r), spectrum.row(r0 + r) + c0, kdim_);
      },
      local.data());
}

Grid<double> AerialEngine::aerial(const Grid<cd>& spectrum) const {
  std::vector<Grid<double>> out =
      aerial_batch(std::vector<const Grid<cd>*>{&spectrum});
  return std::move(out.front());
}

std::vector<Grid<double>> AerialEngine::aerial_batch(
    const std::vector<Grid<cd>>& spectra) const {
  std::vector<const Grid<cd>*> ptrs;
  ptrs.reserve(spectra.size());
  for (const Grid<cd>& s : spectra) ptrs.push_back(&s);
  return aerial_batch(ptrs);
}

std::vector<Grid<double>> AerialEngine::aerial_batch(
    const std::vector<const Grid<cd>*>& spectra) const {
  for (const Grid<cd>* s : spectra) {
    check(s != nullptr, "aerial_batch: null spectrum");
    check(s->rows() >= kdim_ && s->cols() >= kdim_,
          "spectrum crop smaller than the kernel support");
  }
  const std::int64_t batch = static_cast<std::int64_t>(spectra.size());
  if (batch == 0) return {};
  const std::int64_t n = rank();
  const std::int64_t chunks = (n + kGrain - 1) / kGrain;
  const std::int64_t per_mask_bytes =
      chunks * static_cast<std::int64_t>(sim_px_) * sim_px_ *
      static_cast<std::int64_t>(sizeof(double));
  const std::int64_t window =
      std::max<std::int64_t>(1, kMaxPartialBytes / per_mask_bytes);
  const std::vector<Grid<cd>>& kernels = *kernels_;
  std::vector<Grid<double>> out(static_cast<std::size_t>(batch));
  std::vector<Grid<double>> partial;
  for (std::int64_t w0 = 0; w0 < batch; w0 += window) {
    const std::int64_t wn = std::min(window, batch - w0);
    // One task per (mask, kernel chunk) on the sim_px grid; partials are
    // reduced per mask in chunk order afterwards, which keeps the sum
    // bit-identical regardless of batch size, window placement, worker
    // count, or scheduling.
    partial.assign(static_cast<std::size_t>(wn * chunks), Grid<double>());
    parallel_for(wn * chunks, [&](std::int64_t ti) {
      const std::int64_t b = w0 + ti / chunks;
      const std::int64_t ci = ti % chunks;
      const Grid<cd>& spectrum = *spectra[static_cast<std::size_t>(b)];
      const int r0 = spectrum.rows() / 2 - kdim_ / 2;
      const int c0 = spectrum.cols() / 2 - kdim_ / 2;
      Grid<double> local(sim_px_, sim_px_, 0.0);
      const std::int64_t begin = ci * kGrain;
      const std::int64_t end = std::min(n, begin + kGrain);
      for (std::int64_t i = begin; i < end; ++i) {
        accumulate_kernel(kernels[static_cast<std::size_t>(i)], spectrum, r0,
                          c0, local);
      }
      partial[static_cast<std::size_t>(ti)] = std::move(local);
    });
    // One task per mask: its ordered reduction, then (when the sweep ran
    // below out_px) its exact band-limited resample.  Each mask's output
    // depends on that mask's partials alone.
    parallel_for(wn, [&](std::int64_t b) {
      Grid<double> sum = reduce_ordered(
          partial.data() + static_cast<std::size_t>(b * chunks),
          static_cast<std::size_t>(chunks), sim_px_);
      out[static_cast<std::size_t>(w0 + b)] =
          sim_px_ < out_px_ ? band_resample(sum, 2 * kdim_ - 1, out_px_)
                            : std::move(sum);
    });
  }
  return out;
}

Grid<double> reduce_ordered(const Grid<double>* partials, std::size_t count,
                            int out_px) {
  Grid<double> acc(out_px, out_px, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const Grid<double>& p = partials[i];
    if (p.empty()) continue;
    check(p.rows() == out_px && p.cols() == out_px,
          "partial intensity shape mismatch");
    for (std::size_t a = 0; a < acc.size(); ++a) acc[a] += p[a];
  }
  return acc;
}

}  // namespace nitho
