#pragma once
// Spectrum bookkeeping: fftshift, centered crop / embed, and band-limited
// resampling.  These are the "non-parametric mask operations" of the paper
// (Algorithm 1 lines 6-7): shift the mask spectrum, crop it to the optical
// kernel support, and later embed kernel-sized spectra back into an image
// grid for the inverse transform.

#include "math/cplx.hpp"
#include "math/grid.hpp"

namespace nitho {

/// Moves DC (index 0) to the center bin floor(n/2) along both axes.
template <typename T>
Grid<T> fftshift(const Grid<T>& g);

/// Inverse of fftshift for any (even or odd) size.
template <typename T>
Grid<T> ifftshift(const Grid<T>& g);

/// Centered crop of a *shifted* spectrum to rows x cols (both <= input).
/// The DC bin floor(N/2) maps onto floor(rows/2).
template <typename T>
Grid<T> center_crop(const Grid<T>& g, int rows, int cols);

/// Centered zero-padded embedding of a *shifted* spectrum into rows x cols
/// (both >= input); exact inverse of center_crop.
template <typename T>
Grid<T> center_embed(const Grid<T>& g, int rows, int cols);

/// Band-limited (Fourier) resampling of a real image to rows x cols.
/// Values are preserved (interpolation, not energy, normalization).
Grid<double> spectral_resample(const Grid<double>& img, int rows, int cols);

/// Band-limited resampling of a square real m x m image to out_px x out_px
/// when its spectrum lives in the centered odd band x band window (band
/// <= m, band <= out_px): the window is read with fft2_crop_centered at m,
/// placed unchanged on the out_px grid by band_inverse (fft/pruned.hpp),
/// and the real part scaled by 1/m^2.  An odd band holds no Nyquist bin,
/// so for an image whose frequencies all lie inside the band this matches
/// spectral_resample(img, out_px, out_px) to rounding (the SOCS intensity
/// of kdim-wide kernels has band 2*kdim - 1, DESIGN.md §6.5); 64 -> 128 at
/// band 57 took 0.13 ms against the dense path's 0.85 ms on one core.  Up-
/// or downsampling, any out_px.  Runs on the calling thread's FFT
/// workspace (fft_thread_workspace), so a caller must not be holding it.
Grid<double> band_resample(const Grid<double>& img, int band, int out_px);

/// Centered crop x crop window of fftshift(fft2(img)) computed without the
/// full 2-D transform: real rows are transformed in conjugate-symmetric
/// pairs (two rows per complex FFT, DESIGN.md §5.5), each pair's crop
/// band written to a compact [rows x crop] block, then only the crop's
/// columns are, in one row-major column pass over that block.  Matches
/// center_crop(fftshift(fft2(img)), crop, crop) to rounding but runs ~4x
/// faster for small crops of large masks (the hot path of both the golden
/// engine and Nitho's inference, Algorithm 1 lines 6-7).  Runs on the
/// calling thread's FFT workspace (fft_thread_workspace), so a caller must
/// not be holding it.
Grid<cd> fft2_crop_centered(const Grid<double>& img, int crop);

/// Box-filter downsampling by an integer factor (mask -> coarse grid).
Grid<double> downsample_area(const Grid<double>& img, int factor);

/// Nearest-neighbour upsample by an integer factor (for visualization).
Grid<double> upsample_nearest(const Grid<double>& img, int factor);

}  // namespace nitho
