// train: Algorithm-1 training of the Table-I size point on golden B1 data.
// One operation is one optimizer step; steps run as NithoTrainer epochs, so
// a latency sample is one epoch's wall time over its steps.  Training runs
// as jobs of the trainer's default cosine schedule: a finished job is
// checked and replaced by a fresh model trained from scratch.  (Held at the
// base rate past its schedule, Adam at 4e-3 diverges after a few hundred
// epochs, so a single open-ended run is not a workload the library serves.)

#include <cmath>
#include <limits>
#include <memory>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "layout/datasets.hpp"
#include "litho/golden.hpp"
#include "metrics/metrics.hpp"
#include "nitho/fast_litho.hpp"
#include "nitho/model.hpp"
#include "nitho/trainer.hpp"
#include "nn/ops_fft.hpp"
#include "opc/engine.hpp"

namespace perfbench {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Scale {
  int tile_nm;
  int train;        ///< training samples
  int held;         ///< held-out samples scored for psnr_db / epe_px
  int train_px;
  int score_epoch;  ///< epochs of the first job done (warm-up included)
                    ///< when scored; at most the schedule's length
  int setups;
  int min_epochs;
};

Scale scale_for(bool tiny) {
  if (tiny) return {256, 8, 4, 32, 3, 2, 4};
  return {1024, 16, 96, 64, 60, 3, 300};
}

constexpr int kBatch = 4;

struct State {
  std::unique_ptr<nitho::GoldenEngine> golden;
  nitho::Dataset train;
  std::unique_ptr<nitho::TrainingSet> set;
  std::unique_ptr<nitho::NithoModel> model;
  std::unique_ptr<nitho::NithoTrainer> trainer;  ///< borrows model and set
  double optics_s = 0.0;
  double dataset_s = 0.0;

  std::unique_ptr<nitho::NithoModel> make_model() const {
    const nitho::LithoConfig& lc = golden->config();
    return std::make_unique<nitho::NithoModel>(table1_model_config(), lc.tile_nm,
                                               lc.optics.wavelength_nm,
                                               lc.optics.na);
  }

  nitho::NithoTrainConfig train_config() const {
    nitho::NithoTrainConfig tc;  // the default epochs, LR and schedule
    tc.batch = kBatch;
    tc.train_px = set->train_px;
    return tc;
  }

  /// The next job: a fresh model (the same initialization) and its trainer.
  void new_job() {
    trainer.reset();  // borrows the model
    model = make_model();
    trainer = std::make_unique<nitho::NithoTrainer>(*model, *set, train_config());
  }
};

/// Training must make progress: the last epoch of a job below its first.
void check_job(const nitho::NithoTrainer& trainer, Result& r) {
  const auto& losses = trainer.epoch_losses();
  if (losses.size() >= 2 && !(losses.back() < losses.front())) r.fail();
}

std::unique_ptr<State> set_up(const Scale& s, std::uint64_t seed) {
  auto st = std::make_unique<State>();
  nitho::LithoConfig lc;
  lc.tile_nm = s.tile_nm;
  lc.raster_px = s.tile_nm;
  auto t = Clock::now();
  st->golden = std::make_unique<nitho::GoldenEngine>(lc);
  st->optics_s = seconds_since(t);

  st->model = st->make_model();
  t = Clock::now();
  st->train = st->golden->make_dataset(nitho::DatasetKind::B1, s.train,
                                       seed * 7919 + 1);
  st->set = std::make_unique<nitho::TrainingSet>(nitho::prepare_training_set(
      nitho::sample_ptrs(st->train), st->model->kernel_dim(), s.train_px));
  st->dataset_s = seconds_since(t);

  st->trainer = std::make_unique<nitho::NithoTrainer>(*st->model, *st->set,
                                                      st->train_config());
  st->trainer->run_epoch();  // warm-up: graph arena, FFT plans, workspaces
  return st;
}

/// Held-out fidelity of the current kernels: the aerial against the golden
/// engine's, and the print against the drawn pattern.  (Against the golden
/// print, the edge error of a partly trained model swings with the training
/// data far more than it tracks the code.)
void score(const State& st, const nitho::Dataset& held, double& psnr_db,
           double& epe_px) {
  const int px = st.golden->config().analysis_px;
  const double threshold = st.golden->config().resist.threshold;
  double p = 0.0, e = 0.0;
  for (const nitho::Sample& sample : held.samples) {
    const nitho::Grid<double> pred = nitho::predict_aerial(*st.model, sample, px);
    p += nitho::psnr(sample.aerial, pred);
    e += nitho::opc::mean_edge_placement_error(
        nitho::binarize(pred, threshold),
        nitho::binarize(sample.mask_coarse, 0.5));
  }
  const double n = static_cast<double>(held.samples.size());
  psnr_db = p / n;
  epe_px = e / n;
}

/// 2*M*N*K per real GEMM, four real GEMMs per complex one.
double cmlp_flops(const nitho::NithoModel& model) {
  const auto& c = model.config();
  const double p = static_cast<double>(model.kernel_dim()) * model.kernel_dim();
  const double macs = static_cast<double>(c.encoding.features) * c.hidden +
                      static_cast<double>(c.blocks) * c.hidden * c.hidden +
                      static_cast<double>(c.hidden) * c.rank;
  return 4.0 * 2.0 * p * macs;
}

}  // namespace

Result run_train(const Args& args) {
  const Scale s = scale_for(args.tiny);
  // One busy thread: the step's many short parallel_for calls make a
  // second worker a source of wake-up jitter (the traced sweep shows it).
  nitho::set_parallel_workers(1);
  Result r;
  std::unique_ptr<State> st;
  const std::vector<double> setups =
      time_setups(args.trace ? 1 : s.setups, [&] {
        st.reset();
        st = set_up(s, args.seed);
      });
  const int steps_per_epoch = (st->set->size() + kBatch - 1) / kBatch;
  // One epoch of the current job, checked for a finite loss.
  const auto epoch = [&] {
    st->trainer->run_epoch();
    r.attempted += steps_per_epoch;
    const bool finite = std::isfinite(st->trainer->epoch_losses().back());
    if (!finite) r.fail(steps_per_epoch);
    return finite;
  };
  // A finished job is checked and replaced by the next one.
  const auto next_job_if_done = [&] {
    if (!st->trainer->done()) return;
    check_job(*st->trainer, r);
    st->new_job();
  };

  if (!args.trace) {
    // Held-out golden samples: verification data, rendered outside the
    // set-up time.
    const nitho::Dataset held = st->golden->make_dataset(
        nitho::DatasetKind::B1, s.held, args.seed * 7919 + 2);
    TimedPhase tp;
    double psnr_db = 0.0, epe_px = 0.0, excluded_s = 0.0;
    bool scored = false;
    const auto t0 = Clock::now();
    while (static_cast<int>(tp.latency_ms.size()) < s.min_epochs || !scored ||
           seconds_since(t0) - excluded_s < args.seconds) {
      const auto t = Clock::now();
      const bool finite = epoch();
      tp.latency_ms.push_back(ms_since(t) / steps_per_epoch);
      tp.done(seconds_since(t0) - excluded_s, finite ? steps_per_epoch : 0);
      if (!scored && st->trainer->epochs_done() == s.score_epoch) {
        const auto te = Clock::now();
        score(*st, held, psnr_db, epe_px);
        excluded_s += seconds_since(te);
        scored = true;
      }
      next_job_if_done();
    }
    tp.wall_s = seconds_since(t0) - excluded_s;
    check_job(*st->trainer, r);
    add_end_to_end(r, tp, setups, psnr_db, epe_px);
    r.notes.push_back("op = one optimizer step (batch " +
                      std::to_string(kBatch) + "); latency sample = epoch / " +
                      std::to_string(steps_per_epoch) + " steps; jobs of " +
                      std::to_string(st->train_config().epochs) +
                      " epochs, the first scored after " +
                      std::to_string(s.score_epoch));
    return r;
  }

  ledger_add(r, "optics.setup_s", "s", st->optics_s, kNaN,
             "GoldenEngine construction (one set-up)");
  ledger_add(r, "litho.dataset_s", "s", st->dataset_s, kNaN,
             "make_dataset + prepare_training_set (one set-up)");
  // A batch of training spectra for the standalone SOCS forward.
  const int k = st->model->kernel_dim();
  nitho::nn::Tensor spectra({kBatch, k, k, 2});
  for (int b = 0; b < kBatch; ++b) {
    const nitho::nn::Tensor& one = st->set->spectra[static_cast<std::size_t>(b)];
    std::copy(one.data(), one.data() + one.numel(),
              spectra.data() + static_cast<std::int64_t>(b) * one.numel());
  }
  nitho::nn::GraphArena arena;
  std::vector<double> fwd, bwd, opt, predict, socs;
  const auto op = [&] {
    epoch();
    next_job_if_done();
  };
  const auto traced = [&]() -> double {
    const nitho::TrainStats before = st->trainer->stats();
    const auto t = Clock::now();
    epoch();
    const double op_ms = ms_since(t);
    const nitho::TrainStats& after = st->trainer->stats();
    const double per_step = 1e3 / steps_per_epoch;
    fwd.push_back(per_step * (after.forward_seconds - before.forward_seconds));
    bwd.push_back(per_step * (after.backward_seconds - before.backward_seconds));
    opt.push_back(per_step * (after.step_seconds - before.step_seconds));
    {
      const nitho::nn::GraphArena::Scope scope(arena);
      auto tl = Clock::now();
      const nitho::nn::Var kernels = st->model->predict_kernels();
      predict.push_back(ms_since(tl));
      tl = Clock::now();
      const nitho::nn::Var intensity = nitho::nn::abs2_sum0_batch(
          nitho::nn::socs_field_batch(kernels, spectra, s.train_px));
      socs.push_back(ms_since(tl));
    }
    arena.reset();
    next_job_if_done();
    return op_ms;
  };
  const double flops = cmlp_flops(*st->model);
  const auto collect = [&](double op_ms) {
    const double step = op_ms / steps_per_epoch;
    const double f = mean(fwd), b = mean(bwd), o = mean(opt);
    ledger_add(r, "train.forward_ms", "ms", f, 100.0 * f / step,
               "TrainStats, per step");
    ledger_add(r, "train.backward_ms", "ms", b, 100.0 * b / step,
               "TrainStats, per step");
    ledger_add(r, "train.opt_ms", "ms", o, 100.0 * o / step,
               "TrainStats, per step");
    ledger_add(r, "nitho.predict_kernels_ms", "ms", mean(predict),
               100.0 * mean(predict) / step, "inside forward");
    ledger_add(r, "nitho.cmlp_gflops", "GFLOP/s", flops / mean(predict) / 1e6,
               kNaN, "computed: 4 real GEMMs x 2MNK per complex layer");
    ledger_add(r, "nn.socs_field_batch_ms", "ms", mean(socs),
               100.0 * mean(socs) / step,
               "socs_field_batch + abs2_sum0_batch forward, inside forward");
    ledger_add(r, "unattributed_pct", "%", 100.0 * (step - f - b - o) / step,
               kNaN, "step - (forward + backward + optimizer)");
    for (auto* v : {&fwd, &bwd, &opt, &predict, &socs}) v->clear();
  };
  traced_repeats(r, args.seconds / 12.0, args.tiny ? 2 : 5, args.tiny ? 2 : 10,
                 1, op, traced, collect);
  check_job(*st->trainer, r);
  return r;
}

}  // namespace perfbench
