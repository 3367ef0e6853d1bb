#pragma once
// Algorithm 1: the forward training procedure of Nitho.
//
// Per optimization step the CMLP predicts the kernel stack once; the whole
// mask batch is then imaged in a single tensor-batched graph: the
// (precomputed, constant) cropped mask spectra are stacked [B, k, k, 2],
// multiplied in, inverse-transformed to coherent fields and summed to
// intensity in one node, nn::socs_intensity_batch, and compared against
// the golden aerials with an ordered per-sample MSE (DESIGN.md §8).  The
// complex weights are updated by Adam through the differentiable FFTs.
// The loss trajectory is bit-identical to the historical
// one-graph-chain-per-mask loop at a fixed seed (pinned in
// tests/test_nitho.cpp against a verbatim legacy reimplementation).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "litho/golden.hpp"
#include "nitho/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nitho {

struct NithoTrainConfig {
  int epochs = 60;
  int batch = 4;
  float lr = 4e-3f;
  /// Training grid; 0 = smallest power of two >= max(64, 2 * kernel_dim)
  /// (keeps the squared field alias-free).
  int train_px = 0;
  std::uint64_t seed = 99;
  bool verbose = false;
};

struct TrainStats {
  std::vector<double> epoch_losses;  ///< mean MSE per epoch
  double final_loss = 0.0;
  double seconds = 0.0;
  double forward_seconds = 0.0;   ///< graph build + loss evaluation
  double backward_seconds = 0.0;  ///< reverse pass
  double step_seconds = 0.0;      ///< optimizer update
  int steps = 0;
};

/// Precomputed constant tensors of a training run: per sample the centered
/// kernel-support crop of the mask spectrum and the golden aerial resampled
/// to the training grid.  Building this is the expensive part of dataset
/// setup (spectral_resample per sample), so it is exposed separately:
/// benches that train several models on the same samples (Tables II-IV)
/// prepare once and reuse.
struct TrainingSet {
  int kernel_dim = 0;
  int train_px = 0;
  std::vector<nn::Tensor> spectra;  ///< per sample [kernel_dim, kernel_dim, 2]
  std::vector<nn::Tensor> targets;  ///< per sample [train_px, train_px]

  int size() const { return static_cast<int>(spectra.size()); }
};

/// Builds the constant tensors once.  train_px <= 0 applies the
/// NithoTrainConfig::train_px auto rule; aerials already on the training
/// grid are converted without a spectral resample.
TrainingSet prepare_training_set(const std::vector<const Sample*>& data,
                                 int kernel_dim, int train_px = 0);

/// An nn::VjpTimer that records every vjp of a backward pass into the
/// histogram "<prefix>.vjp.<op>_us" (microseconds: the histograms' range
/// starts at 2^-10, below which a per-op time in seconds would clamp into
/// the bottom bucket).  Histograms register on an op's first record.
class VjpHistograms final : public nn::VjpTimer {
 public:
  VjpHistograms(obs::MetricsRegistry& registry, std::string prefix);
  void record(const char* op, double seconds) override;

 private:
  obs::MetricsRegistry& registry_;
  std::string prefix_;
  /// Op-name pointer -> histogram; op names are string literals, so a
  /// pointer hit skips the registry lookup.
  std::vector<std::pair<const char*, obs::LogHistogram*>> by_op_;
};

/// Epoch-stepwise, checkpointable driver of the Algorithm-1 loop.  This is
/// the class train_nitho() runs on: constructing one and calling
/// run_epoch() until done() is arithmetic-for-arithmetic the historical
/// whole-run loop, so every bit-identity pin on train_nitho covers it.
///
/// The trainer's entire state — model weights, Adam moments + step count,
/// the shuffle RNG, the loss trajectory and the epoch cursor — round-trips
/// through save_state/load_state (nn/serialize records): a trainer stopped
/// after epoch k, serialized, restored into a fresh model + trainer and
/// resumed to epoch n produces bit-identical weights and losses to the
/// uninterrupted n-epoch run (pinned in tests/test_nitho.cpp).  This is
/// what lets rollout replicas (src/rollout/) be paused, shipped and
/// tournament-cloned.
///
/// The model and the training set are borrowed and must outlive the
/// trainer; the set must have been prepared for the model's kernel support.
class NithoTrainer {
 public:
  NithoTrainer(NithoModel& model, const TrainingSet& set,
               NithoTrainConfig cfg);

  /// One full pass over the set (cfg.epochs passes complete the run; extra
  /// calls throw).  Appends to epoch_losses() and advances the LR schedule.
  void run_epoch();

  bool done() const { return epoch_ >= cfg_.epochs; }
  int epochs_done() const { return epoch_; }
  const NithoTrainConfig& config() const { return cfg_; }
  NithoModel& model() { return model_; }
  const std::vector<double>& epoch_losses() const {
    return stats_.epoch_losses;
  }
  /// Accumulated stats so far (final_loss = last completed epoch's loss).
  const TrainStats& stats() const { return stats_; }

  /// The cosine-decay learning rate in force after `completed_epochs`
  /// epochs of a cfg run (bit-exactly the value run_epoch would have set).
  static float scheduled_lr(const NithoTrainConfig& cfg, int completed_epochs);

  /// Re-bases the LR schedule on a new base rate (tournament perturbation):
  /// cfg().lr becomes `lr` and the current rate is recomputed for the
  /// current epoch cursor.  Does not touch weights, moments or the RNG.
  void set_base_lr(float lr);

  /// Binds observability sinks (borrowed; must outlive the trainer — both
  /// may be null to unbind).  Each completed epoch publishes
  /// "<prefix>.epoch/loss/forward_seconds/backward_seconds/step_seconds"
  /// gauges and a "<prefix>.steps" counter, and every step's backward
  /// records each vjp into "<prefix>.vjp.<op>_us" (VjpHistograms); with a
  /// tracer, sampled steps emit forward/backward/opt_step spans on `track`
  /// (DESIGN.md §12.3).
  /// Observation is timing-only — the training arithmetic is untouched, so
  /// every bit-identity pin holds with or without an observer.  Not part
  /// of NithoTrainConfig on purpose: the config is serialized state
  /// (save_state), sinks are runtime wiring.
  void set_observer(obs::MetricsRegistry* registry,
                    obs::Tracer* tracer = nullptr, std::uint32_t track = 0,
                    const std::string& prefix = "train");

  /// Serializes config + epoch cursor + weights + Adam + RNG + trajectory.
  /// load_state adopts the stored config (like opc::OpcEngine::restore) and
  /// throws check_error when the stored state is structurally incompatible
  /// with the bound model/set (kernel support, grid, set size), when a
  /// weight, an Adam moment or a learning rate is not finite (or a second
  /// moment is negative), or the stream is truncated/corrupt — it never
  /// partially restores.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  NithoModel& model_;
  const TrainingSet& set_;
  NithoTrainConfig cfg_;
  nn::Adam opt_;
  Rng rng_;
  std::vector<int> order_;
  nn::GraphArena arena_;
  nn::Tensor batch_spectra_, batch_targets_;
  int epoch_ = 0;
  TrainStats stats_;
  /// Observability (set_observer); all borrowed, all optional.
  obs::Tracer* obs_tracer_ = nullptr;
  std::uint32_t obs_track_ = 0;
  obs::Gauge* g_epoch_ = nullptr;
  obs::Gauge* g_loss_ = nullptr;
  obs::Gauge* g_fwd_ = nullptr;
  obs::Gauge* g_bwd_ = nullptr;
  obs::Gauge* g_step_ = nullptr;
  obs::Counter* c_steps_ = nullptr;
  std::optional<VjpHistograms> vjp_timers_;
};

/// Mean per-sample imaging MSE of the model on a prepared set, through the
/// same batched forward path the trainer optimizes (no gradients).  The
/// held-out metric rollout tournaments rank replicas by; deterministic for
/// a fixed batch size (ordered per-sample reduction, double accumulation).
double evaluate_nitho(const NithoModel& model, const TrainingSet& set,
                      int batch = 4);

/// Trains the model in place on (mask spectrum, golden aerial) pairs.
TrainStats train_nitho(NithoModel& model,
                       const std::vector<const Sample*>& data,
                       const NithoTrainConfig& cfg);

/// Same, over an already prepared set (cfg.train_px must be 0 or agree).
TrainStats train_nitho(NithoModel& model, const TrainingSet& set,
                       const NithoTrainConfig& cfg);

/// Convenience: pointer view over (at most max_count of) a dataset.
std::vector<const Sample*> sample_ptrs(const Dataset& ds, int max_count = -1);

/// Pointer view over multiple datasets (the merged "B2m+B2v" row).
std::vector<const Sample*> sample_ptrs(
    const std::vector<const Dataset*>& sets, int max_per_set = -1);

}  // namespace nitho
