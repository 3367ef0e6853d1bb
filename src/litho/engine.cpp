#include "litho/engine.hpp"

#include <algorithm>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

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

// In-place transpose of a square grid: pure data movement.
void transpose_square(Grid<double>& g) {
  const int n = g.rows();
  double* d = g.data();
  for (int r = 0; r < n; ++r) {
    for (int c = r + 1; c < n; ++c) {
      std::swap(d[static_cast<std::size_t>(r) * n + c],
                d[static_cast<std::size_t>(c) * n + r]);
    }
  }
}

}  // namespace

/// Per-thread scratch (cache-line aligned for the SIMD kernels — DESIGN.md
/// §13.3): the kdim x out_px band the fused scatter writes into (row i is
/// field row scatter_[i]; every other field row is structurally zero), the
/// transposed out_px x out_px column batch the band is gathered into
/// (column c is the contiguous segment [c*out_px, (c+1)*out_px)), and the
/// FFT workspace for Bluestein scratch.
struct AerialEngine::Workspace {
  Workspace(int out_px, int kdim)
      : out(out_px),
        band(static_cast<std::size_t>(kdim) * static_cast<std::size_t>(out_px)),
        cols(static_cast<std::size_t>(out_px) *
             static_cast<std::size_t>(out_px)) {}
  cd* band_row(int i) {
    return band.data() +
           static_cast<std::size_t>(i) * static_cast<std::size_t>(out);
  }
  int out;
  aligned_vector<cd> band;
  aligned_vector<cd> cols;
  Fft2Workspace fft;
};

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
  out_plan_ = &fft_plan_d(out_px_);

  // Fused embed + ifftshift: kernel entry (r, c) lands on field row/col
  // scatter_[r] / scatter_[c], i.e. at (out/2 - kdim/2 + r + (out+1)/2)
  // mod out — exactly where ifftshift(center_embed(...)) would put it.
  const int e0 = out_px_ / 2 - kdim_ / 2;
  const int sh = (out_px_ + 1) / 2;
  scatter_.resize(static_cast<std::size_t>(kdim_));
  for (int r = 0; r < kdim_; ++r) {
    scatter_[static_cast<std::size_t>(r)] = (e0 + r + sh) % out_px_;
  }
}

AerialEngine::~AerialEngine() = default;

std::unique_ptr<AerialEngine::Workspace> AerialEngine::acquire_workspace()
    const {
  {
    LockGuard lk(ws_mu_);
    if (!ws_pool_.empty()) {
      std::unique_ptr<Workspace> ws = std::move(ws_pool_.back());
      ws_pool_.pop_back();
      return ws;
    }
  }
  return std::make_unique<Workspace>(out_px_, kdim_);
}

void AerialEngine::release_workspace(std::unique_ptr<Workspace> ws) const {
  // Keep enough idle workspaces for a full pool dispatch plus a few pinned
  // external callers (serving shards); beyond that, burst workspaces are
  // cheaper to reallocate than to pin for the engine's lifetime.
  const std::size_t cap = static_cast<std::size_t>(parallel_workers()) + 4;
  LockGuard lk(ws_mu_);
  if (ws_pool_.size() < cap) ws_pool_.push_back(std::move(ws));
}

void AerialEngine::accumulate_kernel(const Grid<cd>& kernel,
                                     const Grid<cd>& spectrum, int r0, int c0,
                                     Workspace& ws,
                                     Grid<double>& local_t) const {
  std::fill(ws.band.begin(), ws.band.end(), cd(0.0, 0.0));
  // Fused crop -> kernel-multiply -> embed/shift: the product of kernel and
  // cropped-spectrum entries goes straight to its post-ifftshift slot.  The
  // column map (e0 + c + sh) mod out ascends by 1 per kernel column, so a
  // row scatters as at most two contiguous destination segments — each a
  // straight elementwise complex multiply the SIMD layer can vectorize
  // across pixels.
  const int seg_start = scatter_[0];
  const int seg1 = std::min(kdim_, out_px_ - seg_start);
  for (int r = 0; r < kdim_; ++r) {
    const cd* krow = kernel.row(r);
    const cd* srow = spectrum.row(r0 + r) + c0;
    cd* frow = ws.band_row(r);
    simd::cmul(frow + seg_start, krow, srow, seg1);
    simd::cmul(frow, krow + seg1, srow + seg1, kdim_ - seg1);
  }
  // Inverse 2-D transform, rows then columns, pruned to the band rows: a
  // structurally zero row inverse-transforms to (signed) zeros, which only
  // ever enter the column pass additively, and |.|^2 erases the sign of
  // zero — so skipping them cannot change any bit of the intensity
  // (DESIGN.md §6.3).  The band rows are contiguous, so the row pass is one
  // many-transform call.
  const int n = out_px_;
  cd* scratch = ws.fft.scratch_for(*out_plan_);
  out_plan_->inverse_many(ws.band.data(), kdim_, scratch);
  // Column pass as one batch: gather the band transposed, each column a
  // contiguous segment whose non-band rows are the +0 the full field held.
  // For radix-2 sizes each value lands on its bit-reversed position, so the
  // batch skips the input permutation (pure data movement, same bits);
  // Bluestein sizes gather in natural order.
  cd* cols = ws.cols.data();
  std::fill(ws.cols.begin(), ws.cols.end(), cd(0.0, 0.0));
  const int* rev = out_plan_->bitrev_table();
  for (int i = 0; i < kdim_; ++i) {
    const int fr = scatter_[static_cast<std::size_t>(i)];
    cd* dst = cols + (rev != nullptr ? rev[fr] : fr);
    const cd* src = ws.band_row(i);
    for (int c = 0; c < n; ++c) dst[static_cast<std::size_t>(c) * n] = src[c];
  }
  if (rev != nullptr) {
    out_plan_->inverse_many_prerev(cols, n, scratch);
  } else {
    out_plan_->inverse_many(cols, n, scratch);
  }
  // Undo the inverse transforms' 1/out^2 so the field matches the
  // unnormalized Hopkins convention (DESIGN.md §5.1), then accumulate the
  // coherent intensity into the transposed partial: elementwise, so every
  // pixel sees the same operations in the same kernel order.  The kernel's
  // scale-then-square order reproduces the historical arithmetic exactly.
  const double scale = static_cast<double>(n) * n;
  simd::abs2_scale_accum(local_t.data(), cols, scale,
                         static_cast<std::int64_t>(local_t.size()));
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
      chunks * static_cast<std::int64_t>(out_px_) * out_px_ *
      static_cast<std::int64_t>(sizeof(double));
  const std::int64_t window =
      std::max<std::int64_t>(1, kMaxPartialBytes / per_mask_bytes);
  const std::vector<Grid<cd>>& kernels = *kernels_;
  std::vector<Grid<double>> out;
  out.reserve(static_cast<std::size_t>(batch));
  std::vector<Grid<double>> partial;
  for (std::int64_t w0 = 0; w0 < batch; w0 += window) {
    const std::int64_t wn = std::min(window, batch - w0);
    // One task per (mask, kernel chunk); partials are reduced per mask in
    // chunk order afterwards, which keeps the sum bit-identical regardless
    // of batch size, window placement, worker count, or scheduling.
    partial.assign(static_cast<std::size_t>(wn * chunks), Grid<double>());
    parallel_for(wn * chunks, [&](std::int64_t ti) {
      const std::int64_t b = w0 + ti / chunks;
      const std::int64_t ci = ti % chunks;
      const Grid<cd>& spectrum = *spectra[static_cast<std::size_t>(b)];
      const int r0 = spectrum.rows() / 2 - kdim_ / 2;
      const int c0 = spectrum.cols() / 2 - kdim_ / 2;
      std::unique_ptr<Workspace> ws = acquire_workspace();
      Grid<double> local(out_px_, out_px_, 0.0);
      const std::int64_t begin = ci * kGrain;
      const std::int64_t end = std::min(n, begin + kGrain);
      for (std::int64_t i = begin; i < end; ++i) {
        accumulate_kernel(kernels[static_cast<std::size_t>(i)], spectrum, r0,
                          c0, *ws, local);
      }
      transpose_square(local);  // column-major accumulator -> row-major
      partial[static_cast<std::size_t>(ti)] = std::move(local);
      release_workspace(std::move(ws));
    });
    for (std::int64_t b = 0; b < wn; ++b) {
      out.push_back(reduce_ordered(
          partial.data() + static_cast<std::size_t>(b * chunks),
          static_cast<std::size_t>(chunks), out_px_));
    }
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
