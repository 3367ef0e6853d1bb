#include "nitho/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "fft/spectral.hpp"
#include "nn/ops.hpp"
#include "nn/ops_fft.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace nitho {
namespace {

nn::Tensor spectrum_tensor(const Grid<cd>& spectrum, int kdim) {
  check(spectrum.rows() >= kdim && spectrum.cols() >= kdim,
        "stored spectrum crop smaller than the model's kernel support");
  const Grid<cd> crop = center_crop(spectrum, kdim, kdim);
  nn::Tensor t({kdim, kdim, 2});
  for (std::size_t i = 0; i < crop.size(); ++i) {
    t[static_cast<std::int64_t>(2 * i)] = static_cast<float>(crop[i].real());
    t[static_cast<std::int64_t>(2 * i + 1)] = static_cast<float>(crop[i].imag());
  }
  return t;
}

nn::Tensor aerial_tensor(const Grid<double>& aerial, int px) {
  const Grid<double> sized = aerial.rows() == px
                                 ? aerial
                                 : spectral_resample(aerial, px, px);
  nn::Tensor t({px, px});
  for (std::size_t i = 0; i < sized.size(); ++i) {
    t[static_cast<std::int64_t>(i)] = static_cast<float>(sized[i]);
  }
  return t;
}

int auto_train_px(int kdim, int requested) {
  if (requested > 0) return requested;
  int px = 64;
  while (px < 2 * kdim) px *= 2;
  return px;
}

// Copies sample tensors for the step's batch window into the stacked
// constants ([count, k, k, 2] spectra, [count, px, px] targets).
void gather_batch(const TrainingSet& set, const std::vector<int>& order,
                  int begin, int count, nn::Tensor& spectra,
                  nn::Tensor& targets) {
  const std::int64_t splane = set.spectra.front().numel();
  const std::int64_t tplane = set.targets.front().numel();
  if (spectra.ndim() == 0 || spectra.dim(0) != count) {
    spectra = nn::Tensor({count, set.kernel_dim, set.kernel_dim, 2});
    targets = nn::Tensor({count, set.train_px, set.train_px});
  }
  for (int j = 0; j < count; ++j) {
    const int i = order[static_cast<std::size_t>(begin + j)];
    std::memcpy(spectra.data() + j * splane,
                set.spectra[static_cast<std::size_t>(i)].data(),
                static_cast<std::size_t>(splane) * sizeof(float));
    std::memcpy(targets.data() + j * tplane,
                set.targets[static_cast<std::size_t>(i)].data(),
                static_cast<std::size_t>(tplane) * sizeof(float));
  }
}

}  // namespace

TrainingSet prepare_training_set(const std::vector<const Sample*>& data,
                                 int kernel_dim, int train_px) {
  check(!data.empty(), "training needs at least one sample");
  check(kernel_dim >= 1, "bad kernel dimension");
  TrainingSet set;
  set.kernel_dim = kernel_dim;
  set.train_px = auto_train_px(kernel_dim, train_px);
  set.spectra.reserve(data.size());
  set.targets.reserve(data.size());
  for (const Sample* s : data) {
    check(s != nullptr, "null sample");
    set.spectra.push_back(spectrum_tensor(s->spectrum, kernel_dim));
    set.targets.push_back(aerial_tensor(s->aerial, set.train_px));
  }
  return set;
}

TrainStats train_nitho(NithoModel& model,
                       const std::vector<const Sample*>& data,
                       const NithoTrainConfig& cfg) {
  return train_nitho(
      model, prepare_training_set(data, model.kernel_dim(), cfg.train_px),
      cfg);
}

VjpHistograms::VjpHistograms(obs::MetricsRegistry& registry,
                             std::string prefix)
    : registry_(registry), prefix_(std::move(prefix)) {}

void VjpHistograms::record(const char* op, double seconds) {
  obs::LogHistogram* h = nullptr;
  for (const auto& [name, hist] : by_op_) {
    if (name == op) {
      h = hist;
      break;
    }
  }
  if (h == nullptr) {
    h = &registry_.histogram(prefix_ + ".vjp." + op + "_us");
    by_op_.emplace_back(op, h);
  }
  h->record(seconds * 1e6);
}

NithoTrainer::NithoTrainer(NithoModel& model, const TrainingSet& set,
                           NithoTrainConfig cfg)
    : model_(model),
      set_(set),
      cfg_(cfg),
      opt_(model.parameters(), cfg.lr),
      rng_(cfg.seed),
      order_(static_cast<std::size_t>(set.size())) {
  const int n = set_.size();
  check(n >= 1, "training needs at least one sample");
  check(cfg_.epochs >= 1 && cfg_.batch >= 1 && cfg_.lr > 0.0f,
        "bad training configuration");
  check(set_.kernel_dim == model_.kernel_dim(),
        "training set prepared for a different kernel support");
  check(cfg_.train_px <= 0 || cfg_.train_px == set_.train_px,
        "training set prepared for a different grid");
  // TrainingSet is a plain struct callers may fill by hand; gather_batch
  // memcpys by these shapes, so validate them before trusting them.
  const std::vector<int> spec_shape{set_.kernel_dim, set_.kernel_dim, 2};
  const std::vector<int> target_shape{set_.train_px, set_.train_px};
  check(set_.targets.size() == set_.spectra.size(),
        "training set spectra/targets size mismatch");
  for (int i = 0; i < n; ++i) {
    check(set_.spectra[static_cast<std::size_t>(i)].shape() == spec_shape &&
              set_.targets[static_cast<std::size_t>(i)].shape() == target_shape,
          "training set tensor shapes inconsistent with kernel_dim/train_px");
  }
  std::iota(order_.begin(), order_.end(), 0);
}

float NithoTrainer::scheduled_lr(const NithoTrainConfig& cfg,
                                 int completed_epochs) {
  check(completed_epochs >= 0 && completed_epochs <= cfg.epochs,
        "scheduled_lr: epoch cursor out of range");
  if (completed_epochs == 0) return cfg.lr;
  // Cosine decay to 10% of the base learning rate; bit-exactly the
  // expression run_epoch evaluates at the end of each epoch.
  const double t = static_cast<double>(completed_epochs) / cfg.epochs;
  return static_cast<float>(cfg.lr *
                            (0.1 + 0.45 * (1.0 + std::cos(kPi * t))));
}

void NithoTrainer::set_observer(obs::MetricsRegistry* registry,
                                obs::Tracer* tracer, std::uint32_t track,
                                const std::string& prefix) {
  obs_tracer_ = tracer;
  obs_track_ = track;
  if (registry != nullptr) {
    g_epoch_ = &registry->gauge(prefix + ".epoch");
    g_loss_ = &registry->gauge(prefix + ".loss");
    g_fwd_ = &registry->gauge(prefix + ".forward_seconds");
    g_bwd_ = &registry->gauge(prefix + ".backward_seconds");
    g_step_ = &registry->gauge(prefix + ".step_seconds");
    c_steps_ = &registry->counter(prefix + ".steps");
    vjp_timers_.emplace(*registry, prefix);
  } else {
    g_epoch_ = g_loss_ = g_fwd_ = g_bwd_ = g_step_ = nullptr;
    c_steps_ = nullptr;
    vjp_timers_.reset();
  }
}

void NithoTrainer::set_base_lr(float lr) {
  check(lr > 0.0f, "set_base_lr: learning rate must be positive");
  cfg_.lr = lr;
  opt_.set_lr(scheduled_lr(cfg_, epoch_));
}

void NithoTrainer::run_epoch() {
  check(!done(), "run_epoch: training already complete");
  const int n = set_.size();
  const int px = set_.train_px;
  WallTimer timer;
  WallTimer phase;
  rng_.shuffle(order_);
  double epoch_loss = 0.0;
  int batches = 0;
  for (int b = 0; b < n; b += cfg_.batch) {
    const int count = std::min(cfg_.batch, n - b);
    gather_batch(set_, order_, b, count, batch_spectra_, batch_targets_);
    arena_.reset();
    nn::GraphArena::Scope scope(arena_);
    opt_.zero_grad();
    // Sampled step spans (DESIGN.md §12.3): timing-only branches around the
    // existing phases, so the arithmetic below is byte-for-byte unchanged.
    const bool traced = obs_tracer_ != nullptr && obs_tracer_->sample();
    std::int64_t span_t0 = 0, span_t1 = 0, span_t2 = 0;
    if (traced) span_t0 = obs_tracer_->now_us();
    phase.reset();
    // One field evaluation per step (the kernels do not depend on masks),
    // then the batch images as a single chain of batched nodes
    // (DESIGN.md §8; node shells and buffers recycle through the arena).
    const nn::Var kernels = model_.predict_kernels();
    nn::Var pred = nn::socs_intensity_batch(kernels, batch_spectra_, px);
    nn::Var loss =
        nn::scale(nn::mse_loss_batch_ordered(pred, batch_targets_),
                  1.0f / static_cast<float>(count));
    stats_.forward_seconds += phase.seconds();
    if (traced) span_t1 = obs_tracer_->now_us();
    phase.reset();
    nn::backward(loss, vjp_timers_ ? &*vjp_timers_ : nullptr);
    stats_.backward_seconds += phase.seconds();
    if (traced) span_t2 = obs_tracer_->now_us();
    phase.reset();
    opt_.step();
    stats_.step_seconds += phase.seconds();
    if (traced) {
      const std::int64_t span_t3 = obs_tracer_->now_us();
      const std::uint64_t id = static_cast<std::uint64_t>(stats_.steps + 1);
      obs_tracer_->record({"forward", "train", id, obs_track_, span_t0,
                           span_t1 - span_t0});
      obs_tracer_->record({"backward", "train", id, obs_track_, span_t1,
                           span_t2 - span_t1});
      obs_tracer_->record({"opt_step", "train", id, obs_track_, span_t2,
                           span_t3 - span_t2});
    }
    epoch_loss += loss->value[0];
    ++batches;
    ++stats_.steps;
  }
  stats_.epoch_losses.push_back(epoch_loss / std::max(1, batches));
  stats_.final_loss = stats_.epoch_losses.back();
  ++epoch_;
  opt_.set_lr(scheduled_lr(cfg_, epoch_));
  stats_.seconds += timer.seconds();
  if (g_epoch_ != nullptr) {
    g_epoch_->set(static_cast<double>(epoch_));
    g_loss_->set(stats_.final_loss);
    g_fwd_->set(stats_.forward_seconds);
    g_bwd_->set(stats_.backward_seconds);
    g_step_->set(stats_.step_seconds);
    c_steps_->inc(static_cast<std::uint64_t>(batches));
  }
  if (cfg_.verbose) {
    std::printf("  [nitho] epoch %3d/%d  loss %.3e\n", epoch_, cfg_.epochs,
                stats_.epoch_losses.back());
    std::fflush(stdout);
  }
}

namespace {
constexpr std::uint64_t kTrainerStateVersion = 1;
}  // namespace

void NithoTrainer::save_state(std::ostream& os) const {
  nn::write_u64(os, kTrainerStateVersion);
  // Config: the run this state belongs to.  load_state adopts it.
  nn::write_u64(os, static_cast<std::uint64_t>(cfg_.epochs));
  nn::write_u64(os, static_cast<std::uint64_t>(cfg_.batch));
  nn::write_f32(os, cfg_.lr);
  nn::write_u64(os, static_cast<std::uint64_t>(
                        cfg_.train_px < 0 ? 0 : cfg_.train_px));
  nn::write_u64(os, cfg_.seed);
  // Structural fingerprint of the bound model + set: restoring against a
  // different kernel support / grid / sample count must fail loudly.
  nn::write_u64(os, static_cast<std::uint64_t>(model_.kernel_dim()));
  nn::write_u64(os, static_cast<std::uint64_t>(set_.train_px));
  nn::write_u64(os, static_cast<std::uint64_t>(set_.size()));
  // Cursor + state.
  nn::write_u64(os, static_cast<std::uint64_t>(epoch_));
  const std::vector<nn::Var> params = model_.parameters();
  nn::write_parameters(os, params);
  nn::write_string(os, rng_.state());
  // The shuffle permutation is state, not a derived value: run_epoch
  // shuffles order_ in place (the evolving permutation, matching the
  // legacy loop), so a resume that restarted from iota would draw a
  // different epoch ordering and diverge.
  std::vector<double> order(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    order[i] = static_cast<double>(order_[i]);
  }
  nn::write_doubles(os, order);
  nn::write_doubles(os, stats_.epoch_losses);
  nn::write_u64(os, static_cast<std::uint64_t>(stats_.steps));
  nn::write_doubles(os, {stats_.seconds, stats_.forward_seconds,
                         stats_.backward_seconds, stats_.step_seconds});
  // Adam last: load_state stages everything above in locals and commits
  // only after this record (itself all-or-nothing) has loaded, so a
  // truncated or corrupt stream can never leave the trainer half restored.
  opt_.save_state(os);  // moments (shape-tagged), step count, current lr
}

void NithoTrainer::load_state(std::istream& is) {
  const std::uint64_t version = nn::read_u64(is);
  check(version == kTrainerStateVersion,
        "NithoTrainer::load_state: unsupported state version");
  NithoTrainConfig cfg = cfg_;
  cfg.epochs = static_cast<int>(nn::read_u64(is));
  cfg.batch = static_cast<int>(nn::read_u64(is));
  cfg.lr = nn::read_f32(is);
  cfg.train_px = static_cast<int>(nn::read_u64(is));
  cfg.seed = nn::read_u64(is);
  check(cfg.epochs >= 1 && cfg.batch >= 1 && std::isfinite(cfg.lr) &&
            cfg.lr > 0.0f,
        "NithoTrainer::load_state: corrupt config");
  const auto kernel_dim = static_cast<int>(nn::read_u64(is));
  const auto train_px = static_cast<int>(nn::read_u64(is));
  const auto set_size = static_cast<int>(nn::read_u64(is));
  check(kernel_dim == model_.kernel_dim(),
        "NithoTrainer::load_state: state was captured for a different "
        "kernel support");
  check(train_px == set_.train_px && set_size == set_.size(),
        "NithoTrainer::load_state: state was captured over a different "
        "training set");
  const auto epoch = static_cast<int>(nn::read_u64(is));
  check(epoch >= 0 && epoch <= cfg.epochs,
        "NithoTrainer::load_state: epoch cursor out of range");
  // Stage everything in locals first: nothing of the trainer is mutated
  // until the whole stream has parsed and validated (the Adam record is
  // deliberately last in the stream and is itself all-or-nothing), so a
  // truncated or corrupt checkpoint never leaves a half-restored trainer.
  const std::vector<nn::Var> params = model_.parameters();
  const std::uint64_t stored = nn::read_u64(is);
  check(stored == params.size(),
        "NithoTrainer::load_state: stored parameter count does not match "
        "the model");
  std::vector<nn::Tensor> weights;
  weights.reserve(params.size());
  for (const nn::Var& p : params) {
    nn::Tensor t = nn::read_tensor(is);
    check(t.shape() == p->value.shape(),
          "NithoTrainer::load_state: stored parameter shape does not match "
          "the model");
    check(std::all_of(t.data(), t.data() + t.numel(),
                      [](float v) { return std::isfinite(v); }),
          "NithoTrainer::load_state: non-finite weight");
    weights.push_back(std::move(t));
  }
  Rng staged_rng(0);
  staged_rng.set_state(nn::read_string(is));
  const std::vector<double> order_d = nn::read_doubles(is);
  check(order_d.size() == static_cast<std::size_t>(set_.size()),
        "NithoTrainer::load_state: shuffle permutation length disagrees "
        "with the training set");
  std::vector<int> order(order_d.size());
  std::vector<bool> seen(order_d.size(), false);
  for (std::size_t i = 0; i < order_d.size(); ++i) {
    const double v = order_d[i];
    const int idx = static_cast<int>(v);
    check(v == static_cast<double>(idx) && idx >= 0 &&
              idx < set_.size() && !seen[static_cast<std::size_t>(idx)],
          "NithoTrainer::load_state: corrupt shuffle permutation");
    seen[static_cast<std::size_t>(idx)] = true;
    order[i] = idx;
  }
  std::vector<double> losses = nn::read_doubles(is);
  check(static_cast<int>(losses.size()) == epoch,
        "NithoTrainer::load_state: loss trajectory length disagrees with "
        "the epoch cursor");
  const auto steps = static_cast<int>(nn::read_u64(is));
  const std::vector<double> seconds = nn::read_doubles(is);
  check(seconds.size() == 4,
        "NithoTrainer::load_state: malformed timing record");
  // Last mutating read; shape-checked against the bound parameters and
  // all-or-nothing by itself.
  opt_.load_state(is);

  // Commit.
  for (std::size_t i = 0; i < params.size(); ++i) {
    const nn::Tensor& t = weights[i];
    std::copy(t.data(), t.data() + t.numel(), params[i]->value.data());
  }
  rng_ = staged_rng;
  order_ = std::move(order);
  cfg_ = cfg;
  epoch_ = epoch;
  stats_.epoch_losses = std::move(losses);
  stats_.final_loss =
      stats_.epoch_losses.empty() ? 0.0 : stats_.epoch_losses.back();
  stats_.steps = steps;
  stats_.seconds = seconds[0];
  stats_.forward_seconds = seconds[1];
  stats_.backward_seconds = seconds[2];
  stats_.step_seconds = seconds[3];
}

double evaluate_nitho(const NithoModel& model, const TrainingSet& set,
                      int batch) {
  const int n = set.size();
  check(n >= 1, "evaluation needs at least one sample");
  check(batch >= 1, "bad evaluation batch size");
  check(set.kernel_dim == model.kernel_dim(),
        "evaluation set prepared for a different kernel support");
  const int px = set.train_px;
  // The kernels are predicted once and scored as a constant: nothing
  // requires a gradient, so the CMLP keeps no activations and the SOCS
  // node keeps no fields.
  const nn::Var kernels = nn::make_leaf(model.predict_kernels()->value);
  nn::GraphArena arena;
  nn::Tensor spectra, targets;
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  double total = 0.0;
  for (int b = 0; b < n; b += batch) {
    const int count = std::min(batch, n - b);
    gather_batch(set, order, b, count, spectra, targets);
    arena.reset();
    nn::GraphArena::Scope scope(arena);
    nn::Var pred = nn::socs_intensity_batch(kernels, spectra, px);
    nn::Var loss = nn::mse_loss_batch_ordered(pred, targets);
    // Unscaled: the batch loss is the ordered sum of per-sample MSEs;
    // accumulate the raw sums and divide once at the end.
    total += static_cast<double>(loss->value[0]);
  }
  return total / static_cast<double>(n);
}

TrainStats train_nitho(NithoModel& model, const TrainingSet& set,
                       const NithoTrainConfig& cfg) {
  NithoTrainer trainer(model, set, cfg);
  while (!trainer.done()) trainer.run_epoch();
  return trainer.stats();
}

std::vector<const Sample*> sample_ptrs(const Dataset& ds, int max_count) {
  std::vector<const Sample*> out;
  const int n = max_count < 0
                    ? static_cast<int>(ds.samples.size())
                    : std::min<int>(max_count, static_cast<int>(ds.samples.size()));
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(&ds.samples[static_cast<std::size_t>(i)]);
  return out;
}

std::vector<const Sample*> sample_ptrs(const std::vector<const Dataset*>& sets,
                                       int max_per_set) {
  std::vector<const Sample*> out;
  for (const Dataset* ds : sets) {
    check(ds != nullptr, "null dataset");
    auto ptrs = sample_ptrs(*ds, max_per_set);
    out.insert(out.end(), ptrs.begin(), ptrs.end());
  }
  return out;
}

}  // namespace nitho
