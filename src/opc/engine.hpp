#pragma once
// OpcEngine: gradient-based mask correction (ILT) as a batched, resumable
// job (DESIGN.md §10).
//
// The optimizer is the one examples/inverse_litho.cpp introduced —
//
//   theta --sigmoid--> mask --FFT crop--> spectrum --SOCS--> aerial,
//   loss = MSE(aerial, target) + w * mean(mask * (1 - mask))
//
// — lifted from one mask per graph to a whole batch per graph.  Each step
// builds a single autodiff graph over [B, S, S] theta through the batched
// FFT ops (fft2c_crop_batch / socs_intensity_from_spectrum_batch), recycled
// through a GraphArena, so steady-state steps allocate (almost) nothing.
// Per mask the arithmetic is bit-identical to running the per-mask loop:
// the batched ops are per-sample bit-identical, the loss is an ordered
// per-sample reduction, and Adam is elementwise over disjoint theta
// blocks, so one engine step over B masks produces exactly the thetas of
// B independent single-mask optimizers.
//
// Jobs are resumable: checkpoint() captures theta, the Adam moments and
// step count, the intended patterns and the loss trajectory; restore()
// continues the optimization bit-identically (same thetas, same losses) —
// the property the serving layer leans on to stop and resume long OPC
// jobs across server restarts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "nn/autodiff.hpp"
#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"

namespace nitho::opc {

struct OpcConfig {
  int mask_px = 64;            ///< optimization grid (theta / mask side)
  int sim_px = 32;             ///< aerial grid the imaging loss lives on
  float lr = 0.05f;            ///< Adam learning rate
  float bin_weight = 0.02f;    ///< binarization penalty weight
  float theta_init = 1.5f;     ///< |theta| at init (sign from the intent)
  float target_bright = 0.6f;  ///< desired aerial inside the pattern
  float target_dark = 0.05f;   ///< desired aerial outside
  double resist_threshold = 0.25;  ///< print threshold for EPE evaluation
};

/// Scalars from one optimizer step (already divided by the batch size).
struct OpcStepStats {
  float fit_loss = 0.0f;    ///< mean per-mask imaging MSE
  float total_loss = 0.0f;  ///< fit + binarization penalty
};

/// Everything needed to resume a job bit-identically.  Serialized as one
/// flat float vector (io/tensor_io save_floats): a fixed header (version,
/// config, batch, iteration, Adam step count, loss count) followed by the
/// intended patterns, theta, the Adam first and second moments and the
/// fit-loss trajectory, each [B * mask_px^2] (losses: [loss count]).
struct OpcCheckpoint {
  OpcConfig config;
  int batch = 0;
  long iteration = 0;          ///< optimizer steps taken so far
  long adam_step = 0;          ///< Adam's bias-correction step count
  std::vector<float> intended; ///< [B, mask_px, mask_px] intent rasters
  std::vector<float> theta;    ///< [B, mask_px, mask_px]
  std::vector<float> adam_m;   ///< first moments, same shape as theta
  std::vector<float> adam_v;   ///< second moments
  std::vector<float> losses;   ///< fit loss per completed iteration

  void save(const std::string& path) const;
  static OpcCheckpoint load(const std::string& path);
};

class OpcEngine {
 public:
  /// Kernels are borrowed the way serving shards borrow them
  /// (FastLitho::kernels_shared) — shared, never copied.  All kernels must
  /// be square with one odd dimension <= sim_px, and every value finite.
  explicit OpcEngine(std::shared_ptr<const std::vector<Grid<cd>>> kernels,
                     OpcConfig config = {});

  /// Starts a fresh job: one intended pattern per mask, each mask_px
  /// square with values in [0,1].  Theta initializes to +-theta_init from
  /// the thresholded intent; targets are the intent box-filtered to
  /// sim_px and pushed to target_bright / target_dark.
  void start(const std::vector<Grid<double>>& intended);

  /// Resumes from a checkpoint (replacing this engine's config with the
  /// checkpoint's): subsequent step() calls produce bit-identical thetas
  /// and losses to the uninterrupted run.
  void restore(const OpcCheckpoint& ck);

  OpcCheckpoint checkpoint() const;

  /// One Adam step over the whole batch through a single recycled graph.
  OpcStepStats step();

  /// Times every vjp of step()'s backward into `timer` (borrowed; must
  /// outlive the engine's use of it; null, the default, times nothing).
  /// Timing only: the arithmetic is the same with or without one.
  void set_vjp_timer(nn::VjpTimer* timer) { vjp_timer_ = timer; }

  int batch() const { return batch_; }
  long iteration() const { return iteration_; }
  const OpcConfig& config() const { return config_; }
  /// Mean per-mask fit loss after each completed iteration.
  const std::vector<float>& losses() const { return losses_; }

  /// Current theta, flattened [B, mask_px, mask_px] — the bit-identity
  /// hook for tests and benches.
  std::vector<float> theta() const;
  /// Overwrites theta (evaluation hook: e.g. score a reference loop's
  /// result through the same EPE path).  Does not touch the Adam state.
  void load_theta(const std::vector<float>& theta);

  /// Continuous masks sigmoid(theta) at mask_px.
  std::vector<Grid<double>> masks() const;
  /// Masks thresholded at 0.5 (what would go to the writer).
  std::vector<Grid<double>> binary_masks() const;

  /// No-grad forward of the current masks: aerial images [B, sim, sim].
  nn::Tensor forward_aerial() const;
  /// Aerial thresholded at resist_threshold, per mask.
  std::vector<Grid<double>> printed() const;
  /// Mean edge-placement error (sim-grid pixels) of printed() against the
  /// intent box-filtered to sim_px, averaged over the batch.
  double mean_epe_px() const;

 private:
  void bind(int batch, std::vector<float> intended, std::vector<float> theta);
  Grid<double> intended_bin_sim(int b) const;

  OpcConfig config_;
  std::shared_ptr<const std::vector<Grid<cd>>> kernels_;
  int kdim_ = 0;
  nn::Tensor kt_;              ///< kernels as [r, kdim, kdim, 2]
  nn::GraphArena arena_;
  nn::Var vtheta_;             ///< [B, mask_px, mask_px] leaf
  std::unique_ptr<nn::Adam> opt_;
  nn::Tensor targets_;         ///< [B, sim, sim]
  std::vector<float> intended_;
  int batch_ = 0;
  long iteration_ = 0;
  std::vector<float> losses_;
  nn::VjpTimer* vjp_timer_ = nullptr;  ///< borrowed; may be null
};

/// Mean edge-placement error between two same-shape binary grids, in
/// pixels: every 0/1 transition in `intended` (along rows and along
/// columns) is matched to the nearest transition of `printed` in the same
/// scan line; a line with no printed transition scores the line length.
/// Returns 0 when the intent has no edges at all.
double mean_edge_placement_error(const Grid<double>& printed,
                                 const Grid<double>& intended);

}  // namespace nitho::opc
