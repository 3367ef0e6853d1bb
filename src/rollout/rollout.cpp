#include "rollout/rollout.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "nitho/fast_litho.hpp"
#include "serve/server.hpp"

namespace nitho::rollout {

TrainerReplica::TrainerReplica(int id, const RolloutConfig& cfg,
                               const TrainingSet& train_set,
                               NithoTrainConfig train_cfg)
    : id_(id),
      model_(cfg.model, cfg.tile_nm, cfg.wavelength_nm, cfg.na),
      trainer_(model_, train_set, train_cfg) {}

void TrainerReplica::train_epochs(int n) {
  check(n >= 1, "train_epochs: need at least one epoch");
  for (int i = 0; i < n && !trainer_.done(); ++i) trainer_.run_epoch();
}

double TrainerReplica::evaluate(const TrainingSet& holdout, int batch) const {
  return evaluate_nitho(model_, holdout, batch);
}

void TrainerReplica::save_state(std::ostream& os) const {
  trainer_.save_state(os);
}

void TrainerReplica::load_state(std::istream& is) { trainer_.load_state(is); }

RolloutController::RolloutController(RolloutConfig cfg,
                                     const TrainingSet& train_set,
                                     const TrainingSet& holdout)
    : cfg_(cfg), train_set_(train_set), holdout_(holdout), rng_(cfg.seed) {
  check(cfg_.replicas >= 1, "rollout needs at least one replica");
  check(cfg_.rounds >= 1 && cfg_.epochs_per_round >= 1,
        "bad tournament cadence");
  check(cfg_.lr_spread >= 1.0f, "lr_spread must be >= 1");
  check(cfg_.eval_batch >= 1, "bad eval batch size");
  check(holdout_.kernel_dim == train_set_.kernel_dim,
        "train and holdout sets prepared for different kernel supports");
  // The trainer owns the LR schedule over the whole tournament.
  cfg_.train.epochs = cfg_.rounds * cfg_.epochs_per_round;
  for (int i = 0; i < cfg_.replicas; ++i) {
    NithoTrainConfig tc = cfg_.train;
    tc.seed = cfg_.train.seed + static_cast<std::uint64_t>(i);
    if (i > 0) tc.lr = perturbed_lr();
    replicas_.push_back(
        std::make_unique<TrainerReplica>(i, cfg_, train_set_, tc));
  }
}

TrainerReplica& RolloutController::replica(int i) {
  check(i >= 0 && i < replica_count(), "replica index out of range");
  return *replicas_[static_cast<std::size_t>(i)];
}

void RolloutController::set_observer(obs::MetricsRegistry* registry,
                                     obs::Tracer* tracer,
                                     std::uint32_t base_track) {
  obs_tracer_ = tracer;
  obs_base_track_ = base_track;
  if (registry != nullptr) {
    g_round_ = &registry->gauge("rollout.round");
    g_winner_ = &registry->gauge("rollout.winner");
    g_winner_loss_ = &registry->gauge("rollout.winner_loss");
    g_winner_lr_ = &registry->gauge("rollout.winner_lr");
    g_round_seconds_ = &registry->gauge("rollout.round_seconds");
    g_generation_ = &registry->gauge("rollout.generation");
    c_swaps_ = &registry->counter("rollout.swaps");
    c_unranked_ = &registry->counter("rollout.unranked_rounds");
  } else {
    g_round_ = g_winner_ = g_winner_loss_ = g_winner_lr_ = nullptr;
    g_round_seconds_ = g_generation_ = nullptr;
    c_swaps_ = c_unranked_ = nullptr;
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    replicas_[i]->trainer().set_observer(
        registry, tracer,
        base_track + 1 + static_cast<std::uint32_t>(i),
        "rollout.r" + std::to_string(i));
  }
}

float RolloutController::perturbed_lr() {
  // Log-uniform over [lr / spread, lr * spread]: multiplicative moves are
  // the natural exploration scale for learning rates.
  const double span = std::log(static_cast<double>(cfg_.lr_spread));
  const double factor = std::exp(rng_.uniform(-span, span));
  return static_cast<float>(static_cast<double>(cfg_.train.lr) * factor);
}

RoundResult RolloutController::run_round(serve::LithoServer* server) {
  check(!done(), "run_round: tournament already complete");
  WallTimer timer;
  RoundResult res;
  res.round = round_ + 1;
  // Controller spans are one-per-phase-per-round — far below any sampling
  // rate — so they bypass sample() and emit whenever tracing is on.
  const bool traced = obs_tracer_ != nullptr && obs_tracer_->enabled();
  const auto span_begin = [&]() -> std::int64_t {
    return traced ? obs_tracer_->now_us() : 0;
  };
  const auto span_end = [&](const char* name, std::int64_t t0) {
    if (!traced) return;
    obs_tracer_->record({name, "rollout",
                         static_cast<std::uint64_t>(res.round),
                         obs_base_track_, t0, obs_tracer_->now_us() - t0});
  };
  const std::int64_t t_round = span_begin();

  // Train phase: one background thread per replica (each touches only its
  // own model/trainer; the shared TrainingSet is read-only).  The join is
  // the tournament barrier.  A throwing replica fails the round, but only
  // after every thread has stopped.
  const std::int64_t t_train = span_begin();
  std::vector<std::exception_ptr> errors(replicas_.size());
  {
    std::vector<std::thread> workers;
    workers.reserve(replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      workers.emplace_back([this, i, &errors] {
        try {
          replicas_[i]->train_epochs(cfg_.epochs_per_round);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  span_end("train", t_train);

  // Rank phase: held-out loss, deterministic (ordered reduction inside
  // evaluate_nitho; ties break toward the lowest replica id).  Only finite
  // losses rank: a diverged replica can neither win nor be published.
  const std::int64_t t_rank = span_begin();
  res.eval_losses.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const double loss = replicas_[i]->evaluate(holdout_, cfg_.eval_batch);
    res.eval_losses.push_back(loss);
    if (std::isfinite(loss) &&
        (res.winner < 0 ||
         loss < res.eval_losses[static_cast<std::size_t>(res.winner)])) {
      res.winner = static_cast<int>(i);
    }
  }
  span_end("rank", t_rank);
  // No finite loss: nothing is published and nobody adopts; the round is
  // recorded with winner -1.
  TrainerReplica* winner = nullptr;
  if (res.winner >= 0) {
    winner = replicas_[static_cast<std::size_t>(res.winner)].get();
    res.winner_loss = res.eval_losses[static_cast<std::size_t>(res.winner)];
    res.winner_lr = winner->trainer().config().lr;
  } else if (c_unranked_ != nullptr) {
    c_unranked_->inc();
  }

  // Publish phase: the winner's kernels become the server's next snapshot
  // generation.  In-flight requests finish on the snapshot they captured
  // at submit, so the swap never mixes generations within a batch.
  if (winner != nullptr && server != nullptr) {
    const std::int64_t t_swap = span_begin();
    res.generation = server->swap_kernels(
        FastLitho::from_model(winner->model(), cfg_.resist_threshold));
    ++stats_.swaps;
    if (c_swaps_ != nullptr) c_swaps_->inc();
    span_end("swap", t_swap);
  }

  // Exploit + explore phase (LTFB): losers adopt the winner's entire
  // trainer state, then re-draw their learning rate from the configured
  // band (log-uniform around train.lr, so exploration never drifts
  // unboundedly).  Serialize once; each adoption reads a private stream.
  if (winner != nullptr && replicas_.size() > 1) {
    const std::int64_t t_adopt = span_begin();
    std::ostringstream state;
    winner->save_state(state);
    const std::string blob = state.str();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (static_cast<int>(i) == res.winner) continue;
      std::istringstream is(blob);
      replicas_[i]->load_state(is);
      replicas_[i]->trainer().set_base_lr(perturbed_lr());
    }
    span_end("adopt", t_adopt);
  }

  ++round_;
  res.seconds = timer.seconds();
  stats_.rounds.push_back(res);
  if (res.winner >= 0) stats_.final_winner = res.winner;
  span_end("round", t_round);
  if (g_round_ != nullptr) {
    g_round_->set(static_cast<double>(res.round));
    g_winner_->set(static_cast<double>(res.winner));
    if (res.winner >= 0) {
      g_winner_loss_->set(res.winner_loss);
      g_winner_lr_->set(static_cast<double>(res.winner_lr));
      g_generation_->set(static_cast<double>(res.generation));
    }
    g_round_seconds_->set(res.seconds);
  }
  if (cfg_.verbose && res.winner < 0) {
    std::printf("  [rollout] round %d/%d  no finite held-out loss: nothing "
                "published\n",
                res.round, cfg_.rounds);
    std::fflush(stdout);
  } else if (cfg_.verbose) {
    std::printf(
        "  [rollout] round %d/%d  winner r%d  loss %.3e  lr %.3e  gen %llu\n",
        res.round, cfg_.rounds, res.winner, res.winner_loss,
        static_cast<double>(res.winner_lr),
        static_cast<unsigned long long>(res.generation));
    std::fflush(stdout);
  }
  return res;
}

RolloutStats RolloutController::run(serve::LithoServer* server) {
  while (!done()) run_round(server);
  return stats_;
}

}  // namespace nitho::rollout
