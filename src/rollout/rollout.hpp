#pragma once
// Continual-learning rollout (DESIGN.md §11): K trainer replicas with
// perturbed hyperparameters train concurrently in background threads; at
// each tournament round they synchronize, are ranked by held-out imaging
// loss (evaluate_nitho), and the winner's kernels are hot-swapped into a
// live LithoServer via swap_kernels — zero downtime, and because every
// request captures its kernel snapshot at submit, each served result
// belongs to exactly one model generation (the value swap_kernels
// returned).  Losers adopt the winner's full trainer state (weights, Adam
// moments, RNG, trajectory — NithoTrainer::save_state/load_state) and then
// re-perturb their learning rate, LBANN's LTFB exploration scheme.
//
// Determinism: with a fixed RolloutConfig::seed the whole tournament —
// perturbed rates, per-round losses, winners and final weights — is
// reproducible; only the interleaving with served traffic varies.  The
// serialize→restore→resume path each adoption rides is pinned bit-exactly
// in tests/test_nitho.cpp; the tournament itself in tests/test_rollout.cpp.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nitho/model.hpp"
#include "nitho/trainer.hpp"

namespace nitho::serve {
class LithoServer;
}  // namespace nitho::serve

namespace nitho::rollout {

struct RolloutConfig {
  /// Tournament width (K) and cadence.  Each replica trains
  /// epochs_per_round epochs between tournaments; rounds tournaments make
  /// a full run (so every replica trains rounds * epochs_per_round epochs
  /// — NithoTrainConfig::epochs is derived, not read).
  int replicas = 3;
  int rounds = 2;
  int epochs_per_round = 2;

  /// Replica model architecture.  All replicas share the same init (the
  /// model seed lives in NithoConfig), so they differ only in
  /// hyperparameters and shuffle streams, the LTFB setup.
  NithoConfig model;
  int tile_nm = 512;
  double wavelength_nm = 193.0;
  double na = 1.35;

  /// Base hyperparameters.  Replica 0 trains at train.lr; replica i > 0
  /// and every re-perturbed loser draw lr from
  /// [train.lr / lr_spread, train.lr * lr_spread] (log-uniform).  Each
  /// replica's shuffle seed is train.seed + id.
  NithoTrainConfig train;
  float lr_spread = 2.0f;

  /// Held-out ranking metric batch size (evaluate_nitho).
  int eval_batch = 4;
  /// Print threshold for the exported FastLitho snapshots.
  double resist_threshold = 0.25;
  /// Controller RNG seed: drives every lr perturbation.
  std::uint64_t seed = 7;
  bool verbose = false;
};

/// One tournament participant: a private model + resumable trainer.  The
/// training set is borrowed (shared, read-only, across all replicas) and
/// must outlive the replica.
class TrainerReplica {
 public:
  TrainerReplica(int id, const RolloutConfig& cfg,
                 const TrainingSet& train_set, NithoTrainConfig train_cfg);

  int id() const { return id_; }
  NithoModel& model() { return model_; }
  const NithoModel& model() const { return model_; }
  NithoTrainer& trainer() { return trainer_; }
  const NithoTrainer& trainer() const { return trainer_; }

  /// Runs up to n epochs (stops early at the trainer's configured total).
  void train_epochs(int n);

  /// Held-out mean imaging MSE (the tournament ranking metric).
  double evaluate(const TrainingSet& holdout, int batch) const;

  /// Full replica state (the trainer's save_state/load_state): a replica
  /// stopped here, restored into a fresh replica and resumed matches the
  /// uninterrupted run bit-exactly.  load_state never partially restores.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  int id_;
  NithoModel model_;
  NithoTrainer trainer_;
};

/// One tournament round's outcome.
struct RoundResult {
  int round = 0;                   ///< 1-based round index
  std::vector<double> eval_losses; ///< per replica, holdout MSE
  /// Replica id with the lowest finite loss; -1 when no loss was finite,
  /// in which case nothing was published, no replica adopted, and the
  /// winner_* fields and generation keep their defaults.
  int winner = -1;
  double winner_loss = 0.0;
  float winner_lr = 0.0f;          ///< the winner's base lr this round
  /// Kernel-snapshot generation the winner was published as (0 when the
  /// round ran without a server or had no winner).
  std::uint64_t generation = 0;
  double seconds = 0.0;            ///< wall time of the round
};

struct RolloutStats {
  std::vector<RoundResult> rounds;
  int final_winner = -1;    ///< winner of the last round that had one
  std::uint64_t swaps = 0;  ///< snapshots published into the server
};

/// Drives the tournament.  Train and holdout sets must be disjoint for the
/// ranking to mean anything (the controller cannot verify that) and must
/// both be prepared for cfg.model's kernel support.
class RolloutController {
 public:
  RolloutController(RolloutConfig cfg, const TrainingSet& train_set,
                    const TrainingSet& holdout);

  /// One round: every replica trains epochs_per_round epochs on its own
  /// thread (the barrier is the round's join), replicas are ranked on the
  /// holdout by finite loss only, the winner is swapped into `server` (when
  /// non-null) and the losers adopt + re-perturb.  A round where no loss is
  /// finite publishes nothing and skips the adoption (winner -1).  Throws
  /// if the tournament is complete; a replica's training error propagates
  /// out after all threads join.
  RoundResult run_round(serve::LithoServer* server);

  /// All remaining rounds; returns the accumulated stats.
  RolloutStats run(serve::LithoServer* server = nullptr);

  /// Binds observability sinks (borrowed; must outlive the controller —
  /// both may be null to unbind).  Round outcomes publish as "rollout.*"
  /// gauges/counters; each replica's trainer is wired with prefix
  /// "rollout.r<id>".  With a tracer, the controller's round/train/rank/
  /// swap/adopt spans go on track `base_track` and replica i's step spans
  /// on track base_track + 1 + i — size the tracer accordingly (controller
  /// spans are per round, so they bypass sampling; replica step spans
  /// sample as usual).  Timing-only: tournament arithmetic is unchanged.
  void set_observer(obs::MetricsRegistry* registry,
                    obs::Tracer* tracer = nullptr,
                    std::uint32_t base_track = 0);

  bool done() const { return round_ >= cfg_.rounds; }
  int rounds_done() const { return round_; }
  int replica_count() const { return static_cast<int>(replicas_.size()); }
  TrainerReplica& replica(int i);
  const RolloutConfig& config() const { return cfg_; }
  const RolloutStats& stats() const { return stats_; }

 private:
  float perturbed_lr();

  RolloutConfig cfg_;
  const TrainingSet& train_set_;
  const TrainingSet& holdout_;
  Rng rng_;
  std::vector<std::unique_ptr<TrainerReplica>> replicas_;
  RolloutStats stats_;
  int round_ = 0;
  /// Observability (set_observer); all borrowed, all optional.
  obs::Tracer* obs_tracer_ = nullptr;
  std::uint32_t obs_base_track_ = 0;
  obs::Gauge* g_round_ = nullptr;
  obs::Gauge* g_winner_ = nullptr;
  obs::Gauge* g_winner_loss_ = nullptr;
  obs::Gauge* g_winner_lr_ = nullptr;
  obs::Gauge* g_round_seconds_ = nullptr;
  obs::Gauge* g_generation_ = nullptr;
  obs::Counter* c_swaps_ = nullptr;
  obs::Counter* c_unranked_ = nullptr;
};

}  // namespace nitho::rollout
