#include "fft/spectral.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "fft/fft.hpp"
#include "fft/pruned.hpp"

namespace nitho {
namespace {

template <typename T>
Grid<T> roll(const Grid<T>& g, int dr, int dc) {
  Grid<T> out(g.rows(), g.cols());
  for (int r = 0; r < g.rows(); ++r) {
    const int rr = (r + dr) % g.rows();
    for (int c = 0; c < g.cols(); ++c) {
      const int cc = (c + dc) % g.cols();
      out(rr, cc) = g(r, c);
    }
  }
  return out;
}

}  // namespace

template <typename T>
Grid<T> fftshift(const Grid<T>& g) {
  return roll(g, g.rows() / 2, g.cols() / 2);
}

template <typename T>
Grid<T> ifftshift(const Grid<T>& g) {
  return roll(g, (g.rows() + 1) / 2, (g.cols() + 1) / 2);
}

template <typename T>
Grid<T> center_crop(const Grid<T>& g, int rows, int cols) {
  check(rows <= g.rows() && cols <= g.cols(), "center_crop target too large");
  const int r0 = g.rows() / 2 - rows / 2;
  const int c0 = g.cols() / 2 - cols / 2;
  Grid<T> out(rows, cols);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) out(r, c) = g(r0 + r, c0 + c);
  return out;
}

template <typename T>
Grid<T> center_embed(const Grid<T>& g, int rows, int cols) {
  check(rows >= g.rows() && cols >= g.cols(), "center_embed target too small");
  const int r0 = rows / 2 - g.rows() / 2;
  const int c0 = cols / 2 - g.cols() / 2;
  Grid<T> out(rows, cols);
  for (int r = 0; r < g.rows(); ++r)
    for (int c = 0; c < g.cols(); ++c) out(r0 + r, c0 + c) = g(r, c);
  return out;
}

template Grid<double> fftshift(const Grid<double>&);
template Grid<cd> fftshift(const Grid<cd>&);
template Grid<float> fftshift(const Grid<float>&);
template Grid<double> ifftshift(const Grid<double>&);
template Grid<cd> ifftshift(const Grid<cd>&);
template Grid<float> ifftshift(const Grid<float>&);
template Grid<double> center_crop(const Grid<double>&, int, int);
template Grid<cd> center_crop(const Grid<cd>&, int, int);
template Grid<double> center_embed(const Grid<double>&, int, int);
template Grid<cd> center_embed(const Grid<cd>&, int, int);

Grid<double> spectral_resample(const Grid<double>& img, int rows, int cols) {
  check(rows >= 1 && cols >= 1, "resample target must be positive");
  if (rows == img.rows() && cols == img.cols()) return img;
  Grid<cd> spec = fftshift(fft2(img));
  Grid<cd> sized;
  if (rows <= img.rows() && cols <= img.cols()) {
    sized = center_crop(spec, rows, cols);
  } else {
    check(rows >= img.rows() && cols >= img.cols(),
          "mixed up/down resampling is not supported");
    sized = center_embed(spec, rows, cols);
  }
  Grid<cd> back = ifft2(ifftshift(sized));
  const double scale = static_cast<double>(rows) * cols /
                       (static_cast<double>(img.rows()) * img.cols());
  Grid<double> out(rows, cols);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = back[i].real() * scale;
  return out;
}

Grid<double> band_resample(const Grid<double>& img, int band, int out_px) {
  const int m = img.rows();
  check(img.cols() == m, "band_resample needs a square image");
  check(band <= out_px, "band_resample band must fit the output grid");
  // fft2_crop_centered checks that band is odd and fits the image.
  const Grid<cd> spectrum = fft2_crop_centered(img, band);
  Fft2Workspace& ws = fft_thread_workspace<double>();
  cd* plane = ws.plane_buffer(out_px * out_px);
  band_inverse(
      fft_plan_d(out_px), band, band, ws,
      [&](int a, cd* row) { std::copy_n(spectrum.row(a), band, row); },
      plane);
  const double inv_m2 = 1.0 / (static_cast<double>(m) * m);
  Grid<double> out(out_px, out_px);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = plane[i].real() * inv_m2;
  }
  return out;
}

Grid<cd> fft2_crop_centered(const Grid<double>& img, int crop) {
  const int rows = img.rows(), cols = img.cols();
  check(crop >= 1 && crop <= rows && crop <= cols, "bad spectrum crop");
  check(crop % 2 == 1, "spectrum crop must be odd (centered on DC)");
  const FftPlan<double>& row_plan = fft_plan_d(cols);
  const FftPlan<double>& col_plan = fft_plan_d(rows);
  // Radix-2 plans take their input at bit-reversed positions (the
  // pruned_detail transforms skip the permutation pass); Bluestein plans in
  // natural order.
  const int* row_rev = row_plan.bitrev_table();
  const int* col_rev = col_plan.bitrev_table();
  Fft2Workspace& ws = fft_thread_workspace<double>();
  cd* buf = ws.band_buffer(cols);
  cd* row_scratch = ws.scratch_for(row_plan);
  // The row pass writes each row's crop band straight to its (bit-reversed)
  // row of a compact [rows x crop] block, which one column pass transforms.
  cd* block = ws.col_buffer(rows * crop);
  const auto band = [&](int r) {
    return block +
           static_cast<std::ptrdiff_t>(col_rev != nullptr ? col_rev[r] : r) *
               crop;
  };
  const auto row_fft = [&](const double* a, const double* b) {
    for (int c = 0; c < cols; ++c) {
      buf[row_rev != nullptr ? row_rev[c] : c] =
          cd(a[c], b != nullptr ? b[c] : 0.0);
    }
    pruned_detail::forward_many(row_plan, buf, 1, row_scratch);
  };
  // Crop position j (signed frequency j - crop/2) lives at unshifted index
  // centered_to_dft_index(j, crop, N).
  // The rows are real, so two of them ride one complex transform: with
  // Z = F(a + i b), conjugate symmetry splits them back as
  // A[k] = (Z[k] + conj(Z[-k]))/2 and B[k] = (Z[k] - conj(Z[-k]))/(2i)
  // (DESIGN.md §5.5).  Only the crop band is ever unpacked, so the split
  // costs O(rows * crop) against the O(rows * cols log cols) it halves.
  // Manhattan rasters repeat rows, so a pair whose bytes equal the previous
  // pair's (rows are contiguous: a pair is one 2*cols span) copies that
  // pair's band instead: same input bits, same output bits.  memcmp, not ==,
  // so +0.0 never aliases -0.0 and a NaN pair still matches itself.
  const std::size_t pair_bytes =
      2 * static_cast<std::size_t>(cols) * sizeof(double);
  int r = 0;
  for (; r + 1 < rows; r += 2) {
    const double* a = img.row(r);
    cd* band_a = band(r);
    cd* band_b = band(r + 1);
    if (r >= 2 && std::memcmp(img.row(r - 2), a, pair_bytes) == 0) {
      std::copy_n(band(r - 2), crop, band_a);
      std::copy_n(band(r - 1), crop, band_b);
      continue;
    }
    row_fft(a, img.row(r + 1));
    for (int j = 0; j < crop; ++j) {
      const int idx = centered_to_dft_index(j, crop, cols);
      const cd z = buf[idx];
      const cd zc = std::conj(buf[(cols - idx) % cols]);
      band_a[j] = 0.5 * (z + zc);
      const cd d = z - zc;
      band_b[j] = cd(0.5 * d.imag(), -0.5 * d.real());
    }
  }
  if (r < rows) {  // odd row count: transform the last row on its own
    row_fft(img.row(r), nullptr);
    cd* band_a = band(r);
    for (int j = 0; j < crop; ++j) {
      band_a[j] = buf[centered_to_dft_index(j, crop, cols)];
    }
  }
  pruned_detail::forward_columns(col_plan, block, crop,
                                 ws.scratch_for(col_plan));
  Grid<cd> out(crop, crop);
  for (int a = 0; a < crop; ++a) {
    std::copy_n(block + static_cast<std::ptrdiff_t>(
                            centered_to_dft_index(a, crop, rows)) *
                            crop,
                crop, out.row(a));
  }
  return out;
}

Grid<double> downsample_area(const Grid<double>& img, int factor) {
  check(factor >= 1, "downsample factor must be >= 1");
  check(img.rows() % factor == 0 && img.cols() % factor == 0,
        "image size must be divisible by the downsample factor");
  const int rows = img.rows() / factor, cols = img.cols() / factor;
  Grid<double> out(rows, cols);
  const double inv = 1.0 / (static_cast<double>(factor) * factor);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      double acc = 0.0;
      for (int i = 0; i < factor; ++i)
        for (int j = 0; j < factor; ++j)
          acc += img(r * factor + i, c * factor + j);
      out(r, c) = acc * inv;
    }
  }
  return out;
}

Grid<double> upsample_nearest(const Grid<double>& img, int factor) {
  check(factor >= 1, "upsample factor must be >= 1");
  Grid<double> out(img.rows() * factor, img.cols() * factor);
  for (int r = 0; r < out.rows(); ++r)
    for (int c = 0; c < out.cols(); ++c) out(r, c) = img(r / factor, c / factor);
  return out;
}

}  // namespace nitho
