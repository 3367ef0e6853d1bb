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

Grid<cd> fft2_crop_centered(const Grid<double>& img, int crop) {
  const int rows = img.rows(), cols = img.cols();
  check(crop >= 1 && crop <= rows && crop <= cols, "bad spectrum crop");
  check(crop % 2 == 1, "spectrum crop must be odd (centered on DC)");
  const FftPlan<double>& row_plan = fft_plan_d(cols);
  Fft2Workspace ws;
  cd* row_scratch = ws.scratch_for(row_plan);
  // Crop position j (signed frequency j - crop/2) lives at unshifted index
  // centered_to_dft_index(j, crop, N).
  Grid<cd> partial(rows, crop);
  std::vector<cd> buf(cols);
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
    const double* b = img.row(r + 1);
    if (r >= 2 && std::memcmp(img.row(r - 2), a, pair_bytes) == 0) {
      std::copy_n(partial.row(r - 2), crop, partial.row(r));
      std::copy_n(partial.row(r - 1), crop, partial.row(r + 1));
      continue;
    }
    for (int c = 0; c < cols; ++c) buf[c] = cd(a[c], b[c]);
    row_plan.forward(buf.data(), row_scratch);
    for (int j = 0; j < crop; ++j) {
      const int idx = centered_to_dft_index(j, crop, cols);
      const cd z = buf[idx];
      const cd zc = std::conj(buf[(cols - idx) % cols]);
      partial(r, j) = 0.5 * (z + zc);
      const cd d = z - zc;
      partial(r + 1, j) = cd(0.5 * d.imag(), -0.5 * d.real());
    }
  }
  if (r < rows) {  // odd row count: transform the last row on its own
    const double* a = img.row(r);
    for (int c = 0; c < cols; ++c) buf[c] = cd(a[c], 0.0);
    row_plan.forward(buf.data(), row_scratch);
    for (int j = 0; j < crop; ++j) {
      partial(r, j) = buf[centered_to_dft_index(j, crop, cols)];
    }
  }
  const FftPlan<double>& col_plan = fft_plan_d(rows);
  cd* col_scratch = ws.scratch_for(col_plan);
  Grid<cd> out(crop, crop);
  std::vector<cd> col(rows);
  for (int j = 0; j < crop; ++j) {
    for (int r2 = 0; r2 < rows; ++r2) col[r2] = partial(r2, j);
    col_plan.forward(col.data(), col_scratch);
    for (int a = 0; a < crop; ++a) {
      out(a, j) = col[centered_to_dft_index(a, crop, rows)];
    }
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
