// Tests for src/rollout/: the LTFB-style replica tournament, replica
// serialize/restore, and the generation-tagged hot-swap contract with a
// live LithoServer — every served result is bit-identical to the direct
// FastLitho computation of exactly one published kernel generation, even
// when swaps race submits.  This suite also runs under the `tsan` preset.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "litho/golden.hpp"
#include "obs/metrics.hpp"
#include "nitho/fast_litho.hpp"
#include "nitho/trainer.hpp"
#include "rollout/rollout.hpp"
#include "serve/server.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

using rollout::RolloutConfig;
using rollout::RolloutController;
using rollout::RolloutStats;
using rollout::RoundResult;
using rollout::TrainerReplica;
using serve::LithoServer;
using serve::ServeOptions;
using test::make_rng;
using test::random_kernels;
using test::random_mask;

LithoConfig small_litho_config() {
  LithoConfig cfg;
  cfg.tile_nm = 512;
  cfg.raster_px = 512;
  cfg.analysis_px = 64;
  cfg.sim_px = 32;
  cfg.spectrum_crop = 31;
  cfg.max_rank = 200;
  return cfg;
}

const GoldenEngine& engine() {
  static const GoldenEngine e{small_litho_config()};
  return e;
}

RolloutConfig tiny_rollout_config() {
  RolloutConfig cfg;
  cfg.replicas = 2;
  cfg.rounds = 2;
  cfg.epochs_per_round = 1;
  cfg.model.kernel_dim = 9;
  cfg.model.rank = 4;
  cfg.model.encoding.features = 16;
  cfg.model.hidden = 8;
  cfg.model.blocks = 1;
  cfg.train.batch = 2;
  cfg.train.train_px = 32;
  cfg.eval_batch = 2;
  return cfg;
}

/// Shared train/holdout split over one small golden dataset, built once.
struct Sets {
  TrainingSet train;
  TrainingSet holdout;
};

const Sets& tiny_sets() {
  static const Sets sets = [] {
    const Dataset ds = engine().make_dataset(DatasetKind::B1, 6, 1234);
    std::vector<const Sample*> train, holdout;
    for (int i = 0; i < 4; ++i) train.push_back(&ds.samples[i]);
    for (int i = 4; i < 6; ++i) holdout.push_back(&ds.samples[i]);
    Sets s;
    s.train = prepare_training_set(train, 9, 32);
    s.holdout = prepare_training_set(holdout, 9, 32);
    return s;
  }();
  return sets;
}

TEST(Rollout, ValidatesConfigAndSets) {
  RolloutConfig cfg = tiny_rollout_config();
  cfg.replicas = 0;
  EXPECT_THROW(RolloutController(cfg, tiny_sets().train, tiny_sets().holdout),
               check_error);
  cfg = tiny_rollout_config();
  cfg.lr_spread = 0.5f;
  EXPECT_THROW(RolloutController(cfg, tiny_sets().train, tiny_sets().holdout),
               check_error);
  cfg = tiny_rollout_config();
  const TrainingSet other = [] {
    const Dataset ds = engine().make_dataset(DatasetKind::B1, 1, 5);
    return prepare_training_set({&ds.samples[0]}, 11, 32);
  }();
  EXPECT_THROW(RolloutController(cfg, tiny_sets().train, other), check_error);
}

TEST(Rollout, TournamentIsDeterministic) {
  const auto run = [] {
    RolloutController ctl(tiny_rollout_config(), tiny_sets().train,
                          tiny_sets().holdout);
    const RolloutStats stats = ctl.run(nullptr);
    return std::make_pair(stats, ctl.replica(0).model().export_kernels());
  };
  const auto [sa, ka] = run();
  const auto [sb, kb] = run();
  ASSERT_EQ(sa.rounds.size(), 2u);
  ASSERT_EQ(sb.rounds.size(), 2u);
  for (std::size_t r = 0; r < sa.rounds.size(); ++r) {
    EXPECT_EQ(sa.rounds[r].winner, sb.rounds[r].winner);
    EXPECT_EQ(sa.rounds[r].eval_losses, sb.rounds[r].eval_losses);
    EXPECT_EQ(sa.rounds[r].winner_lr, sb.rounds[r].winner_lr);
  }
  EXPECT_EQ(sa.final_winner, sb.final_winner);
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) EXPECT_EQ(ka[i], kb[i]);
}

TEST(Rollout, LosersAdoptTheWinnersWeightsEachRound) {
  RolloutController ctl(tiny_rollout_config(), tiny_sets().train,
                        tiny_sets().holdout);
  const RoundResult res = ctl.run_round(nullptr);
  ASSERT_EQ(res.eval_losses.size(), 2u);
  for (double l : res.eval_losses) EXPECT_TRUE(std::isfinite(l));
  EXPECT_EQ(res.winner_loss, res.eval_losses[static_cast<std::size_t>(
                                 res.winner)]);
  EXPECT_EQ(res.generation, 0u);  // no server attached
  // After adoption every replica carries the winner's weights bit for bit
  // and sits at the same epoch cursor.
  const auto kw = ctl.replica(res.winner).model().export_kernels();
  for (int i = 0; i < ctl.replica_count(); ++i) {
    const auto ki = ctl.replica(i).model().export_kernels();
    ASSERT_EQ(ki.size(), kw.size());
    for (std::size_t k = 0; k < kw.size(); ++k) {
      EXPECT_EQ(ki[k], kw[k]) << "replica " << i << " kernel " << k;
    }
    EXPECT_EQ(ctl.replica(i).trainer().epochs_done(), 1);
    EXPECT_EQ(ctl.replica(i).trainer().config().epochs, 2);
  }
  EXPECT_FALSE(ctl.done());
  ctl.run_round(nullptr);
  EXPECT_TRUE(ctl.done());
  EXPECT_THROW(ctl.run_round(nullptr), check_error);
}

TEST(Rollout, ReplicaStateRoundTripsIntoAFreshReplica) {
  RolloutConfig cfg = tiny_rollout_config();
  RolloutController ctl(cfg, tiny_sets().train, tiny_sets().holdout);
  ctl.run_round(nullptr);
  TrainerReplica& donor = ctl.replica(1);
  std::stringstream state;
  donor.save_state(state);

  NithoTrainConfig tc = cfg.train;
  tc.epochs = cfg.rounds * cfg.epochs_per_round;
  cfg.model.seed = 31337;  // different init — must be overwritten
  TrainerReplica restored(7, cfg, tiny_sets().train, tc);
  restored.load_state(state);
  EXPECT_EQ(restored.trainer().epochs_done(), donor.trainer().epochs_done());
  EXPECT_EQ(restored.evaluate(tiny_sets().holdout, 2),
            donor.evaluate(tiny_sets().holdout, 2));
  const auto ka = donor.model().export_kernels();
  const auto kb = restored.model().export_kernels();
  for (std::size_t i = 0; i < ka.size(); ++i) EXPECT_EQ(ka[i], kb[i]);
}

/// Overwrites every weight of replica i with NaN, so its held-out loss is
/// NaN from the next evaluation on.
void poison_replica(RolloutController& ctl, int i) {
  for (const nn::Var& p : ctl.replica(i).model().parameters()) {
    for (std::int64_t k = 0; k < p->value.numel(); ++k) {
      p->value[k] = std::numeric_limits<float>::quiet_NaN();
    }
  }
}

bool all_finite(const std::vector<Grid<cd>>& kernels) {
  for (const Grid<cd>& k : kernels) {
    for (const cd& z : k) {
      if (!std::isfinite(z.real()) || !std::isfinite(z.imag())) return false;
    }
  }
  return true;
}

TEST(Rollout, NaNReplicaZeroNeverWinsOrGetsPublished) {
  // Replica 0 is the initial winner candidate, so a NaN loss there is the
  // case a plain `loss < best` ranking gets wrong.
  RolloutController ctl(tiny_rollout_config(), tiny_sets().train,
                        tiny_sets().holdout);
  Rng rng = make_rng(57);
  LithoServer server(FastLitho(random_kernels(2, 5, rng)));
  poison_replica(ctl, 0);
  const RoundResult res = ctl.run_round(&server);
  ASSERT_EQ(res.eval_losses.size(), 2u);
  EXPECT_TRUE(std::isnan(res.eval_losses[0]));
  ASSERT_TRUE(std::isfinite(res.eval_losses[1]));
  EXPECT_EQ(res.winner, 1);
  EXPECT_EQ(res.winner_loss, res.eval_losses[1]);
  EXPECT_EQ(res.generation, 1u);
  EXPECT_EQ(ctl.stats().swaps, 1u);
  // The published snapshot is the finite winner's, and the poisoned
  // replica adopted it.
  EXPECT_TRUE(all_finite(server.snapshot()->kernels()));
  EXPECT_TRUE(all_finite(ctl.replica(0).model().export_kernels()));
  EXPECT_EQ(ctl.replica(0).model().export_kernels(),
            ctl.replica(1).model().export_kernels());
  server.stop();
}

TEST(Rollout, RoundWithNoFiniteLossPublishesNothing) {
  RolloutConfig cfg = tiny_rollout_config();
  RolloutController ctl(cfg, tiny_sets().train, tiny_sets().holdout);
  obs::MetricsRegistry registry;
  ctl.set_observer(&registry);
  Rng rng = make_rng(58);
  LithoServer server(FastLitho(random_kernels(2, 5, rng)));
  const float lr1 = ctl.replica(1).trainer().config().lr;
  poison_replica(ctl, 0);
  poison_replica(ctl, 1);
  const RoundResult res = ctl.run_round(&server);
  ASSERT_EQ(res.eval_losses.size(), 2u);
  for (const double l : res.eval_losses) EXPECT_TRUE(std::isnan(l));
  EXPECT_EQ(res.winner, -1);
  EXPECT_EQ(res.generation, 0u);
  EXPECT_EQ(server.generation(), 0u);
  EXPECT_EQ(ctl.stats().swaps, 0u);
  EXPECT_EQ(ctl.stats().final_winner, -1);
  EXPECT_EQ(registry.counter("rollout.unranked_rounds").value(), 1u);
  ASSERT_EQ(ctl.stats().rounds.size(), 1u);
  EXPECT_EQ(ctl.stats().rounds[0].winner, -1);
  // No exploit step: nobody adopted or re-drew a learning rate.
  EXPECT_EQ(ctl.replica(1).trainer().config().lr, lr1);
  EXPECT_EQ(ctl.rounds_done(), 1);
  server.stop();
}

// ---------------------------------------------------------------------------
// Generation-tagged hot swap (LithoServer)
// ---------------------------------------------------------------------------

TEST(GenerationSwap, SwapReturnsMonotonicGenerationsAndStatsTrackThem) {
  Rng rng = make_rng(21);
  LithoServer server(FastLitho(random_kernels(2, 5, rng)));
  EXPECT_EQ(server.generation(), 0u);
  EXPECT_EQ(server.stats().kernel_generation, 0u);
  EXPECT_EQ(server.swap_kernels(FastLitho(random_kernels(2, 5, rng))), 1u);
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.swap_kernels(FastLitho(random_kernels(2, 5, rng))), 2u);
  EXPECT_EQ(server.generation(), 2u);
  EXPECT_EQ(server.stats().kernel_generation, 2u);
  EXPECT_EQ(server.shard_stats(0).kernel_generation, 2u);
}

TEST(GenerationSwap, CaptureAtSubmitPinsRequestsToTheirGeneration) {
  Rng rng = make_rng(33);
  const auto kernels_a = random_kernels(2, 5, rng);
  const auto kernels_b = random_kernels(2, 5, rng);
  const Grid<double> mask = random_mask(24, 24, rng);
  const FastLitho direct_a(kernels_a);
  const FastLitho direct_b(kernels_b);
  const Grid<double> want_a = direct_a.aerial_from_mask(mask, 16);
  const Grid<double> want_b = direct_b.aerial_from_mask(mask, 16);

  ServeOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 64;
  LithoServer server(FastLitho(kernels_a), opt);
  // Queue a burst, swap immediately, queue another burst: whatever the
  // worker's progress, pre-swap submissions must serve generation 0 and
  // post-swap submissions generation 1 — never a mixture.
  std::vector<std::future<Grid<double>>> before, after;
  for (int i = 0; i < 8; ++i) {
    before.push_back(server.submit(mask, 16));
  }
  EXPECT_EQ(server.swap_kernels(FastLitho(kernels_b)), 1u);
  for (int i = 0; i < 8; ++i) {
    after.push_back(server.submit(mask, 16));
  }
  for (auto& f : before) EXPECT_EQ(f.get(), want_a);
  for (auto& f : after) EXPECT_EQ(f.get(), want_b);
}

TEST(Rollout, HotSwapIntoLiveServerServesExactGenerations) {
  RolloutConfig cfg = tiny_rollout_config();
  RolloutController ctl(cfg, tiny_sets().train, tiny_sets().holdout);

  // Serve from replica 0's untrained kernels as generation 0.
  ServeOptions opt;
  opt.shards = 2;
  LithoServer server(
      FastLitho::from_model(ctl.replica(0).model(), cfg.resist_threshold),
      opt);
  Rng rng = make_rng(55);
  const Grid<double> mask = random_mask(32, 32, rng);
  const int out_px = 16;

  // Open-loop traffic riding across both tournament swaps.
  std::atomic<bool> stop{false};
  std::vector<std::future<Grid<double>>> results;
  std::thread traffic([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Grid<double> m = mask;
      if (auto fut = server.try_submit(m, out_px)) {
        results.push_back(std::move(*fut));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Snapshot each published generation's kernels as the swaps happen.
  std::vector<std::shared_ptr<const FastLitho>> snaps{server.snapshot()};
  const RolloutStats stats = [&] {
    RolloutStats st;
    while (!ctl.done()) {
      const RoundResult res = ctl.run_round(&server);
      EXPECT_EQ(res.generation, static_cast<std::uint64_t>(res.round));
      snaps.push_back(server.snapshot());
      st = ctl.stats();
    }
    return st;
  }();
  stop.store(true, std::memory_order_relaxed);
  traffic.join();

  EXPECT_EQ(stats.swaps, 2u);
  EXPECT_EQ(server.generation(), 2u);
  ASSERT_EQ(snaps.size(), 3u);

  // Every served result must equal the direct computation of exactly one
  // published generation, bit for bit — a swap mid-batch would break this.
  std::vector<Grid<double>> expected;
  for (const auto& snap : snaps) {
    expected.push_back(snap->aerial_from_mask(mask, out_px));
  }
  ASSERT_FALSE(results.empty());
  int matched[3] = {0, 0, 0};
  for (auto& f : results) {
    const Grid<double> got = f.get();
    int hits = 0;
    for (std::size_t g = 0; g < expected.size(); ++g) {
      if (got == expected[g]) {
        ++matched[g];
        ++hits;
        break;
      }
    }
    EXPECT_EQ(hits, 1) << "result matches no published generation";
  }
  // The last generation keeps serving after the tournament, so at least
  // the tail of the traffic must have landed on it.
  server.stop();
  SUCCEED() << "gen hits: " << matched[0] << "/" << matched[1] << "/"
            << matched[2];
}

}  // namespace
}  // namespace nitho
