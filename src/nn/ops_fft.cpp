#include "nn/ops_fft.hpp"

#include <algorithm>
#include <complex>
#include <source_location>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "fft/fft.hpp"
#include "fft/pruned.hpp"

namespace nitho::nn {
namespace {

using cfl = std::complex<float>;

// The band rows every SOCS op transforms: row a of K . C (both [n, m]
// complex), the fill of band_inverse / band_intensity.
auto socs_band(const cfl* k, const cfl* c, int m) {
  return [k, c, m](int a, cfl* row) {
    const std::int64_t off = static_cast<std::int64_t>(a) * m;
    simd::cmul(row, k + off, c + off, m);
  };
}

// One SOCS field plane, the arithmetic every SOCS op shares: dst = the
// unnormalized inverse 2-D DFT of the centered embed of K . C on the
// s-grid, s = plan.size(), written in place.  Every element of dst is
// written.
void socs_plane(const FftPlan<float>& plan, const cfl* k, const cfl* c,
                int n, int m, cfl* dst, Fft2WorkspaceF& ws) {
  band_inverse(plan, n, m, ws, socs_band(k, c, m), dst);
}

// vjp of socs_plane in one factor: the unnormalized forward DFT of the
// field gradient g (an s x s plane, consumed) read at the crop, multiplied
// by conj of the other factor c ([n, m] interleaved) and accumulated into
// acc ([n, m] interleaved), a-major.
void socs_plane_adjoint(const FftPlan<float>& plan, cfl* g, const float* c,
                        int n, int m, float* acc, Fft2WorkspaceF& ws) {
  crop_forward(plan, g, n, m, ws, [&](int a, int col, cfl gz) {
    const std::int64_t ki = (static_cast<std::int64_t>(a) * m + col) * 2;
    const float cr = c[ki], ci = c[ki + 1];
    // d(factor) += conj(c) . dE
    acc[ki] += gz.real() * cr + gz.imag() * ci;
    acc[ki + 1] += gz.imag() * cr - gz.real() * ci;
  });
}

// vjp of one plane's |E|^2 term, then of its socs_plane: the field
// gradient 2E . gy is formed in ws's plane buffer exactly as
// abs2_sum0_batch's vjp forms it in a zeroed gradient (0 + (2e)·gy), then
// fed to socs_plane_adjoint.
void intensity_plane_adjoint(const FftPlan<float>& plan, const float* field,
                             const float* gy, const float* c, int n, int m,
                             float* acc, Fft2WorkspaceF& ws) {
  const std::int64_t plane = static_cast<std::int64_t>(plan.size()) *
                             plan.size();
  cfl* g = ws.plane_buffer(static_cast<int>(plane));
  std::fill(g, g + plane, cfl(0.0f, 0.0f));
  simd::abs2_backprop(reinterpret_cast<float*>(g), field, gy, plane);
  socs_plane_adjoint(plan, g, c, n, m, acc, ws);
}

// Batched SOCS fields shared by socs_field_batch and
// socs_field_from_spectrum_batch: fields[b, i] = socs_plane(K_i, C_b) for
// kernels [r, n, m, 2] and spectra [B, n, m, 2].  Every plane element is
// written, so the arena tensor is handed out without a memset.
Tensor socs_batch_forward(const float* kernels, const float* spectra,
                          int batch, int r, int n, int m, int s) {
  const std::int64_t plane = static_cast<std::int64_t>(s) * s;
  const std::int64_t kplane = static_cast<std::int64_t>(n) * m;
  const FftPlan<float>& plan = fft_plan_f(s);
  Tensor out = arena_tensor({batch, r, s, s, 2}, /*zeroed=*/false);
  parallel_for(static_cast<std::int64_t>(batch) * r, [&](std::int64_t t) {
    socs_plane(plan,
               reinterpret_cast<const cfl*>(kernels) + (t % r) * kplane,
               reinterpret_cast<const cfl*>(spectra) + (t / r) * kplane, n,
               m, reinterpret_cast<cfl*>(out.data()) + t * plane,
               fft_thread_workspace<float>());
  });
  return out;
}

// Batched SOCS intensity shared by socs_intensity_batch and
// socs_intensity_from_spectrum_batch: I[b] = sum over i ascending of
// |socs_plane(K_i, C_b)|^2 — the per-pixel fold of abs2_sum0_batch.  With
// `fields` ([B, r, S, S, 2]) every plane is kept there for the backward and
// added by simd::abs2_accum right after it is written; without, each
// plane's |.|^2 leaves band_intensity's last column pass and no field is
// stored (the same expression and order, so the same bits).
Tensor socs_intensity_forward(const float* kernels, const float* spectra,
                              int batch, int r, int n, int m, int s,
                              float* fields) {
  const std::int64_t plane = static_cast<std::int64_t>(s) * s;
  const std::int64_t kplane = static_cast<std::int64_t>(n) * m;
  const FftPlan<float>& plan = fft_plan_f(s);
  Tensor out = arena_tensor({batch, s, s});
  parallel_for(batch, [&](std::int64_t b) {
    Fft2WorkspaceF& ws = fft_thread_workspace<float>();
    const cfl* sp = reinterpret_cast<const cfl*>(spectra) + b * kplane;
    float* o = out.data() + b * plane;
    for (int i = 0; i < r; ++i) {
      const cfl* k = reinterpret_cast<const cfl*>(kernels) + i * kplane;
      if (fields == nullptr) {
        band_intensity(plan, n, m, ws, socs_band(k, sp, m), o);
        continue;
      }
      cfl* e = reinterpret_cast<cfl*>(fields) + (b * r + i) * plane;
      socs_plane(plan, k, sp, n, m, e, ws);
      simd::abs2_accum(o, reinterpret_cast<const float*>(e), plane);
    }
  });
  return out;
}

// Shape checks shared by the SOCS ops: kernels [r, n, m, 2] and spectra
// [B, n, m, 2] on the kernel support, out_px covering it.
void check_socs_shapes(const Tensor& kernels, const Tensor& spectra,
                       int out_px, const char* op,
                       const std::source_location& loc =
                           std::source_location::current()) {
  const auto require = [&](bool ok, const char* what) {
    if (!ok) check_fail(std::string(op) + ": " + what, loc);
  };
  require(kernels.ndim() == 4 && kernels.dim(3) == 2,
          "kernels must be [r,n,m,2]");
  require(spectra.ndim() == 4 && spectra.dim(1) == kernels.dim(1) &&
              spectra.dim(2) == kernels.dim(2) && spectra.dim(3) == 2,
          "spectra must be [B,n,m,2] on the kernel support");
  require(spectra.dim(0) >= 1, "empty batch");
  require(out_px >= kernels.dim(1) && out_px >= kernels.dim(2),
          "output grid too small");
}

}  // namespace

Var socs_field_batch(const Var& kernels, const Tensor& spectra, int out_px) {
  check_socs_shapes(kernels->value, spectra, out_px, "socs_field_batch");
  const int r = kernels->value.dim(0);
  const int n = kernels->value.dim(1);
  const int m = kernels->value.dim(2);
  const int batch = spectra.dim(0);
  const int s = out_px;
  const std::int64_t plane = static_cast<std::int64_t>(s) * s * 2;
  const std::int64_t kplane = static_cast<std::int64_t>(n) * m * 2;
  Tensor out = socs_batch_forward(kernels->value.data(), spectra.data(),
                                  batch, r, n, m, s);
  Tensor spec = spectra;

  return make_node(
      std::move(out), {kernels},
      [spec = std::move(spec), batch, r, n, m, s, plane, kplane](Node& node) {
        Node& ik = *node.inputs[0];
        if (!ik.requires_grad) return;
        ik.ensure_grad();
        const FftPlan<float>& plan = fft_plan_f(s);
        // node.grad is transformed in place (documented: the output
        // gradient is consumed).  Kernel planes are disjoint across i;
        // within one kernel the batch accumulates in descending order —
        // exactly the reverse-topological order in which the per-mask
        // graph's socs_field nodes run their backward.
        parallel_for(r, [&](std::int64_t i) {
          for (std::int64_t b = batch; b-- > 0;) {
            socs_plane_adjoint(
                plan,
                reinterpret_cast<cfl*>(node.grad.data() + (b * r + i) * plane),
                spec.data() + b * kplane, n, m,
                ik.grad.data() + i * kplane, fft_thread_workspace<float>());
          }
        });
      },
      "socs_field_batch");
}

Var socs_intensity_batch(const Var& kernels, const Tensor& spectra,
                         int out_px) {
  check_socs_shapes(kernels->value, spectra, out_px, "socs_intensity_batch");
  const int r = kernels->value.dim(0);
  const int n = kernels->value.dim(1);
  const int m = kernels->value.dim(2);
  const int batch = spectra.dim(0);
  const int s = out_px;
  if (!kernels->requires_grad) {
    return make_node(socs_intensity_forward(kernels->value.data(),
                                            spectra.data(), batch, r, n, m, s,
                                            /*fields=*/nullptr),
                     {kernels}, nullptr, "socs_intensity_batch");
  }
  // The fields ride in a constant leaf input, so the graph arena recycles
  // them with the rest of the step's tensors.
  const Var fields =
      make_leaf(arena_tensor({batch, r, s, s, 2}, /*zeroed=*/false));
  Tensor out = socs_intensity_forward(kernels->value.data(), spectra.data(),
                                      batch, r, n, m, s,
                                      fields->value.data());
  const std::int64_t plane = static_cast<std::int64_t>(s) * s;
  const std::int64_t kplane = static_cast<std::int64_t>(n) * m * 2;
  Tensor spec = spectra;

  return make_node(
      std::move(out), {kernels, fields},
      [spec = std::move(spec), batch, r, n, m, s, plane, kplane](Node& node) {
        Node& ik = *node.inputs[0];
        const float* e = node.inputs[1]->value.data();
        ik.ensure_grad();
        const FftPlan<float>& plan = fft_plan_f(s);
        // Per kernel, the batch descends: socs_field_batch's order.
        parallel_for(r, [&](std::int64_t i) {
          for (std::int64_t b = batch; b-- > 0;) {
            intensity_plane_adjoint(plan, e + (b * r + i) * plane * 2,
                                    node.grad.data() + b * plane,
                                    spec.data() + b * kplane, n, m,
                                    ik.grad.data() + i * kplane,
                                    fft_thread_workspace<float>());
          }
        });
      },
      "socs_intensity_batch");
}

Var abs2_sum0_batch(const Var& fields) {
  check(fields->value.ndim() == 5 && fields->value.dim(4) == 2,
        "abs2_sum0_batch: fields must be [B,r,S,S,2]");
  const int batch = fields->value.dim(0);
  const int r = fields->value.dim(1);
  const int h = fields->value.dim(2);
  const int w = fields->value.dim(3);
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  Tensor out = arena_tensor({batch, h, w});
  parallel_for(batch, [&](std::int64_t b) {
    float* o = out.data() + b * plane;
    for (int i = 0; i < r; ++i) {
      const float* e = fields->value.data() + (b * r + i) * plane * 2;
      // Lanes span pixels; the kernel loop stays serial, so each pixel's
      // sum over kernels keeps its order.
      simd::abs2_accum(o, e, plane);
    }
  });
  return make_node(std::move(out), {fields},
                   [batch, r, plane](Node& node) {
                     Node& ie = *node.inputs[0];
                     if (!ie.requires_grad) return;
                     ie.ensure_grad();
                     parallel_for(batch, [&](std::int64_t b) {
                       const float* gy = node.grad.data() + b * plane;
                       for (int i = 0; i < r; ++i) {
                         const std::int64_t off = (b * r + i) * plane * 2;
                         // Lanes span pixels; same (2·e)·gy accumulate as
                         // the scalar loop, per field plane.
                         simd::abs2_backprop(ie.grad.data() + off,
                                             ie.value.data() + off, gy, plane);
                       }
                     });
                   },
                   "abs2_sum0_batch");
}

Var fft2c_crop_batch(const Var& masks, int crop) {
  check(masks->value.ndim() == 3, "fft2c_crop_batch: masks must be [B,S,S]");
  const int batch = masks->value.dim(0);
  const int s = masks->value.dim(1);
  check(batch >= 1, "fft2c_crop_batch: empty batch");
  check(masks->value.dim(2) == s, "fft2c_crop_batch: masks must be square");
  check(crop >= 1 && crop <= s && crop % 2 == 1,
        "fft2c_crop_batch: crop must be odd and fit the mask");

  const std::int64_t plane = static_cast<std::int64_t>(s) * s;
  const std::int64_t cplane = static_cast<std::int64_t>(crop) * crop * 2;
  const float inv_n2 = 1.0f / static_cast<float>(plane);
  const FftPlan<float>& plan = fft_plan_f(s);
  // Full-plane DFT scratch, one plane per sample.  Arena-allocated so a
  // steady-state OPC step recycles it along with the graph's own tensors.
  Tensor scratch = arena_tensor({batch, s, s, 2}, /*zeroed=*/false);
  Tensor out = arena_tensor({batch, crop, crop, 2}, /*zeroed=*/false);

  parallel_for(batch, [&](std::int64_t b) {
    float* buf = scratch.data() + b * plane * 2;
    const float* src = masks->value.data() + b * plane;
    for (std::int64_t p = 0; p < plane; ++p) {
      buf[2 * p] = src[p];
      buf[2 * p + 1] = 0.0f;
    }
    float* dst = out.data() + b * cplane;
    crop_forward(plan, reinterpret_cast<cfl*>(buf), crop, crop,
                 fft_thread_workspace<float>(), [&](int a, int c, cfl v) {
                   const std::int64_t di =
                       (static_cast<std::int64_t>(a) * crop + c) * 2;
                   dst[di] = v.real() * inv_n2;
                   dst[di + 1] = v.imag() * inv_n2;
                 });
  });

  return make_node(
      std::move(out), {masks},
      [batch, s, crop, plane, cplane, inv_n2](Node& node) {
        Node& im = *node.inputs[0];
        if (!im.requires_grad) return;
        im.ensure_grad();
        const FftPlan<float>& plan = fft_plan_f(s);
        // vjp per sample: scatter the crop back, unnormalized inverse DFT
        // into the thread's plane buffer, real part added row-major.
        parallel_for(batch, [&](std::int64_t b) {
          const float* g = node.grad.data() + b * cplane;
          float* acc = im.grad.data() + b * plane;
          Fft2WorkspaceF& ws = fft_thread_workspace<float>();
          cfl* field = ws.plane_buffer(static_cast<int>(plane));
          band_inverse(
              plan, crop, crop, ws,
              [&](int a, cfl* row) {
                for (int c = 0; c < crop; ++c) {
                  const std::int64_t si =
                      (static_cast<std::int64_t>(a) * crop + c) * 2;
                  row[c] = cfl(g[si] * inv_n2, g[si + 1] * inv_n2);
                }
              },
              field);
          for (std::int64_t p = 0; p < plane; ++p) acc[p] += field[p].real();
        });
      },
      "fft2c_crop_batch");
}

Var socs_field_from_spectrum_batch(const Var& spectra, const Tensor& kernels,
                                   int out_px) {
  check_socs_shapes(kernels, spectra->value, out_px,
                    "socs_field_from_spectrum_batch");
  const int r = kernels.dim(0);
  const int n = kernels.dim(1);
  const int m = kernels.dim(2);
  const int batch = spectra->value.dim(0);
  const int s = out_px;
  const std::int64_t plane = static_cast<std::int64_t>(s) * s * 2;
  const std::int64_t kplane = static_cast<std::int64_t>(n) * m * 2;
  Tensor out = socs_batch_forward(kernels.data(), spectra->value.data(),
                                  batch, r, n, m, s);
  Tensor ks = kernels;

  return make_node(
      std::move(out), {spectra},
      [ks = std::move(ks), batch, r, n, m, s, plane, kplane](Node& node) {
        Node& is = *node.inputs[0];
        if (!is.requires_grad) return;
        is.ensure_grad();
        const FftPlan<float>& plan = fft_plan_f(s);
        // The adjoint of socs_field_batch's, with conj(K) in place of
        // conj(C).  Spectrum planes are disjoint across b; within one
        // sample the kernels accumulate in ascending order — the same
        // order as the per-mask op's serial kernel loop.
        parallel_for(batch, [&](std::int64_t b) {
          for (std::int64_t i = 0; i < r; ++i) {
            socs_plane_adjoint(
                plan,
                reinterpret_cast<cfl*>(node.grad.data() + (b * r + i) * plane),
                ks.data() + i * kplane, n, m, is.grad.data() + b * kplane,
                fft_thread_workspace<float>());
          }
        });
      },
      "socs_field_from_spectrum_batch");
}

Var socs_intensity_from_spectrum_batch(const Var& spectra,
                                       const Tensor& kernels, int out_px) {
  check_socs_shapes(kernels, spectra->value, out_px,
                    "socs_intensity_from_spectrum_batch");
  const int r = kernels.dim(0);
  const int n = kernels.dim(1);
  const int m = kernels.dim(2);
  const int batch = spectra->value.dim(0);
  const int s = out_px;
  if (!spectra->requires_grad) {
    return make_node(socs_intensity_forward(kernels.data(),
                                            spectra->value.data(), batch, r,
                                            n, m, s, /*fields=*/nullptr),
                     {spectra}, nullptr, "socs_intensity_from_spectrum_batch");
  }
  const Var fields =
      make_leaf(arena_tensor({batch, r, s, s, 2}, /*zeroed=*/false));
  Tensor out = socs_intensity_forward(kernels.data(), spectra->value.data(),
                                      batch, r, n, m, s,
                                      fields->value.data());
  const std::int64_t plane = static_cast<std::int64_t>(s) * s;
  const std::int64_t kplane = static_cast<std::int64_t>(n) * m * 2;
  Tensor ks = kernels;

  return make_node(
      std::move(out), {spectra, fields},
      [ks = std::move(ks), batch, r, n, m, s, plane, kplane](Node& node) {
        Node& is = *node.inputs[0];
        const float* e = node.inputs[1]->value.data();
        is.ensure_grad();
        const FftPlan<float>& plan = fft_plan_f(s);
        // Per sample, the kernels ascend: socs_field_from_spectrum_batch's
        // order.
        parallel_for(batch, [&](std::int64_t b) {
          for (std::int64_t i = 0; i < r; ++i) {
            intensity_plane_adjoint(plan, e + (b * r + i) * plane * 2,
                                    node.grad.data() + b * plane,
                                    ks.data() + i * kplane, n, m,
                                    is.grad.data() + b * kplane,
                                    fft_thread_workspace<float>());
          }
        });
      },
      "socs_intensity_from_spectrum_batch");
}

Var spectral_conv2d(const Var& x, const Var& w) {
  check(x->value.ndim() == 3, "spectral_conv2d: x must be [Cin,H,W]");
  check(w->value.ndim() == 5 && w->value.dim(4) == 2,
        "spectral_conv2d: w must be [Cout,Cin,mh,mw,2]");
  const int cin = x->value.dim(0), h = x->value.dim(1), wd = x->value.dim(2);
  const int cout = w->value.dim(0), mh = w->value.dim(2), mw = w->value.dim(3);
  check(w->value.dim(1) == cin, "spectral_conv2d: channel mismatch");
  check(mh <= h && mw <= wd, "spectral_conv2d: more modes than pixels");

  const std::int64_t plane = static_cast<std::int64_t>(h) * wd;
  const std::int64_t modes = static_cast<std::int64_t>(mh) * mw;

  // X spectra crops: [Cin, mh, mw] complex.
  std::vector<float> xc(static_cast<std::size_t>(cin) * modes * 2, 0.0f);
  {
    std::vector<float> buf(static_cast<std::size_t>(plane) * 2);
    for (int ci = 0; ci < cin; ++ci) {
      const float* src = x->value.data() + ci * plane;
      for (std::int64_t p = 0; p < plane; ++p) {
        buf[static_cast<std::size_t>(2 * p)] = src[p];
        buf[static_cast<std::size_t>(2 * p + 1)] = 0.0f;
      }
      fft2_plane(buf.data(), h, wd, /*inverse=*/false);
      for (int a = 0; a < mh; ++a) {
        const int rr = centered_to_dft_index(a, mh, h);
        for (int b = 0; b < mw; ++b) {
          const int cc = centered_to_dft_index(b, mw, wd);
          const std::int64_t dst = ((static_cast<std::int64_t>(ci) * mh + a) * mw + b) * 2;
          xc[static_cast<std::size_t>(dst)] =
              buf[static_cast<std::size_t>((rr * wd + cc) * 2)];
          xc[static_cast<std::size_t>(dst + 1)] =
              buf[static_cast<std::size_t>((rr * wd + cc) * 2 + 1)];
        }
      }
    }
  }

  Tensor out({cout, h, wd});
  const float inv_n = 1.0f / static_cast<float>(plane);
  std::vector<float> acc(static_cast<std::size_t>(plane) * 2);
  for (int co = 0; co < cout; ++co) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int ci = 0; ci < cin; ++ci) {
      const float* wm = w->value.data() +
                        ((static_cast<std::int64_t>(co) * cin + ci) * modes) * 2;
      const float* xm = xc.data() + static_cast<std::int64_t>(ci) * modes * 2;
      for (int a = 0; a < mh; ++a) {
        const int rr = centered_to_dft_index(a, mh, h);
        for (int b = 0; b < mw; ++b) {
          const int cc = centered_to_dft_index(b, mw, wd);
          const std::int64_t mi = (static_cast<std::int64_t>(a) * mw + b) * 2;
          const float wr = wm[mi], wi = wm[mi + 1];
          const float xr = xm[mi], xi = xm[mi + 1];
          acc[static_cast<std::size_t>((rr * wd + cc) * 2)] += wr * xr - wi * xi;
          acc[static_cast<std::size_t>((rr * wd + cc) * 2 + 1)] +=
              wr * xi + wi * xr;
        }
      }
    }
    fft2_plane(acc.data(), h, wd, /*inverse=*/true);
    float* dst = out.data() + co * plane;
    // fft2_plane(inverse) is the *unnormalized* inverse; one 1/N factor
    // turns it into the normalized inverse this op is defined with.
    for (std::int64_t p = 0; p < plane; ++p)
      dst[p] = acc[static_cast<std::size_t>(2 * p)] * inv_n;
  }

  std::vector<float> xc_saved = xc;
  return make_node(
      std::move(out), {x, w},
      [xc = std::move(xc_saved), cin, cout, h, wd, mh, mw, plane,
       modes](Node& node) {
        Node& ix = *node.inputs[0];
        Node& iw = *node.inputs[1];
        const float inv_n2 = 1.0f / static_cast<float>(plane);
        // G_Y[co] crops of the forward transform of the output grad.
        std::vector<float> gy(static_cast<std::size_t>(cout) * modes * 2, 0.0f);
        {
          std::vector<float> buf(static_cast<std::size_t>(plane) * 2);
          for (int co = 0; co < cout; ++co) {
            const float* g = node.grad.data() + co * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              buf[static_cast<std::size_t>(2 * p)] = g[p] * inv_n2;
              buf[static_cast<std::size_t>(2 * p + 1)] = 0.0f;
            }
            fft2_plane(buf.data(), h, wd, /*inverse=*/false);
            for (int a = 0; a < mh; ++a) {
              const int rr = centered_to_dft_index(a, mh, h);
              for (int b = 0; b < mw; ++b) {
                const int cc = centered_to_dft_index(b, mw, wd);
                const std::int64_t dst =
                    ((static_cast<std::int64_t>(co) * mh + a) * mw + b) * 2;
                gy[static_cast<std::size_t>(dst)] =
                    buf[static_cast<std::size_t>((rr * wd + cc) * 2)];
                gy[static_cast<std::size_t>(dst + 1)] =
                    buf[static_cast<std::size_t>((rr * wd + cc) * 2 + 1)];
              }
            }
          }
        }
        if (iw.requires_grad) {
          iw.ensure_grad();
          for (int co = 0; co < cout; ++co) {
            for (int ci = 0; ci < cin; ++ci) {
              float* wg = iw.grad.data() +
                          ((static_cast<std::int64_t>(co) * cin + ci) * modes) * 2;
              const float* xm = xc.data() + static_cast<std::int64_t>(ci) * modes * 2;
              const float* gm = gy.data() + static_cast<std::int64_t>(co) * modes * 2;
              for (std::int64_t mi = 0; mi < modes; ++mi) {
                const float xr = xm[2 * mi], xi = xm[2 * mi + 1];
                const float gr = gm[2 * mi], gi = gm[2 * mi + 1];
                // dW = conj(X) . G
                wg[2 * mi] += xr * gr + xi * gi;
                wg[2 * mi + 1] += xr * gi - xi * gr;
              }
            }
          }
        }
        if (ix.requires_grad) {
          ix.ensure_grad();
          std::vector<float> gx(static_cast<std::size_t>(modes) * 2);
          std::vector<float> buf(static_cast<std::size_t>(plane) * 2);
          for (int ci = 0; ci < cin; ++ci) {
            std::fill(gx.begin(), gx.end(), 0.0f);
            for (int co = 0; co < cout; ++co) {
              const float* wm =
                  iw.value.data() +
                  ((static_cast<std::int64_t>(co) * cin + ci) * modes) * 2;
              const float* gm = gy.data() + static_cast<std::int64_t>(co) * modes * 2;
              for (std::int64_t mi = 0; mi < modes; ++mi) {
                const float wr = wm[2 * mi], wi = wm[2 * mi + 1];
                const float gr = gm[2 * mi], gi = gm[2 * mi + 1];
                // dX += conj(W) . G
                gx[static_cast<std::size_t>(2 * mi)] += wr * gr + wi * gi;
                gx[static_cast<std::size_t>(2 * mi + 1)] += wr * gi - wi * gr;
              }
            }
            std::fill(buf.begin(), buf.end(), 0.0f);
            for (int a = 0; a < mh; ++a) {
              const int rr = centered_to_dft_index(a, mh, h);
              for (int b = 0; b < mw; ++b) {
                const int cc = centered_to_dft_index(b, mw, wd);
                const std::int64_t mi = (static_cast<std::int64_t>(a) * mw + b) * 2;
                buf[static_cast<std::size_t>((rr * wd + cc) * 2)] =
                    gx[static_cast<std::size_t>(mi)];
                buf[static_cast<std::size_t>((rr * wd + cc) * 2 + 1)] =
                    gx[static_cast<std::size_t>(mi + 1)];
              }
            }
            // vjp of the unnormalized forward DFT = unnormalized inverse.
            fft2_plane(buf.data(), h, wd, /*inverse=*/true);
            float* xg = ix.grad.data() + ci * plane;
            for (std::int64_t p = 0; p < plane; ++p)
              xg[p] += buf[static_cast<std::size_t>(2 * p)];
          }
        }
      },
      "spectral_conv2d");
}

}  // namespace nitho::nn
