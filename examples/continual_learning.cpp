// Continual-learning demo: an LTFB-style rollout tournament feeding a live
// server (DESIGN.md §11).
//
// Three trainer replicas share one model init but perturbed learning rates
// and private shuffle streams.  Each round they train a couple of epochs
// concurrently, are ranked by held-out imaging loss, and the winner's
// kernels are hot-swapped into a LithoServer that is serving a client the
// whole time — zero downtime, and because every request captures its
// kernel snapshot at submit, each served aerial belongs to exactly one
// model generation.  Losers adopt the winner's full trainer state (the
// serialize/restore/resume path of nn/serialize) and re-perturb.
//
// The tournament itself is deterministic for a fixed RolloutConfig::seed;
// only the interleaving with the served traffic varies run to run.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "litho/golden.hpp"
#include "nitho/fast_litho.hpp"
#include "nitho/trainer.hpp"
#include "obs/export.hpp"
#include "rollout/rollout.hpp"
#include "serve/server.hpp"

using namespace nitho;

namespace {

Grid<double> random_tile(int px, Rng& rng) {
  Grid<double> m(px, px, 0.0);
  for (int r = 0; r < 8; ++r) {
    const int h = rng.randint(4, px / 4), w = rng.randint(4, px / 4);
    const int r0 = rng.randint(0, px - h), c0 = rng.randint(0, px - w);
    for (int y = r0; y < r0 + h; ++y)
      for (int x = c0; x < c0 + w; ++x) m(y, x) = 1.0;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace=<path>: trace the serving shards AND the tournament (round /
  // train / rank / swap phases, sampled trainer steps) into one Perfetto-
  // loadable JSON — the server's tracer and the rollout tracer merge as
  // two process groups.
  const Flags flags(argc, argv);
  const std::string trace_path = flags.get("trace");
  const bool tracing = !trace_path.empty();

  std::printf("Rollout: background trainer tournament -> live hot-swaps\n");
  std::printf("========================================================\n\n");

  // Golden data at a small tile: 8 samples, 6 to train on, 2 held out for
  // the tournament ranking (the split must be disjoint — the controller
  // cannot verify that for you).
  LithoConfig litho;
  litho.tile_nm = 512;
  litho.raster_px = 512;
  litho.analysis_px = 64;
  litho.sim_px = 32;
  litho.spectrum_crop = 31;
  litho.max_rank = 200;
  const GoldenEngine golden(litho);
  const Dataset ds = golden.make_dataset(DatasetKind::B1, 8, 2026);
  std::vector<const Sample*> train_ptrs, holdout_ptrs;
  for (std::size_t i = 0; i < ds.samples.size(); ++i) {
    (i < 6 ? train_ptrs : holdout_ptrs).push_back(&ds.samples[i]);
  }

  rollout::RolloutConfig cfg;
  cfg.replicas = 3;
  cfg.rounds = 3;
  cfg.epochs_per_round = 2;
  cfg.model.kernel_dim = 9;
  cfg.model.rank = 4;
  cfg.model.encoding.features = 16;
  cfg.model.hidden = 8;
  cfg.model.blocks = 1;
  cfg.tile_nm = litho.tile_nm;
  cfg.train.batch = 2;
  cfg.train.train_px = 32;
  cfg.resist_threshold = golden.config().resist.threshold;

  const TrainingSet train_set =
      prepare_training_set(train_ptrs, cfg.model.kernel_dim, cfg.train.train_px);
  const TrainingSet holdout =
      prepare_training_set(holdout_ptrs, cfg.model.kernel_dim, cfg.train.train_px);
  std::printf("train %d / holdout %d samples, %d replicas x %d rounds x "
              "%d epochs\n\n",
              train_set.size(), holdout.size(), cfg.replicas, cfg.rounds,
              cfg.epochs_per_round);

  // Generation 0: the shared untrained init, exported the same way every
  // round winner will be.
  NithoModel init(cfg.model, cfg.tile_nm, cfg.wavelength_nm, cfg.na);
  // One registry for the whole system: serving counters/histograms and
  // rollout/trainer gauges land in the same snapshot.
  auto registry = std::make_shared<obs::MetricsRegistry>();
  serve::ServeOptions opts;
  opts.shards = 2;
  opts.batch.max_batch = 8;
  opts.metrics = registry;
  opts.trace.enabled = tracing;
  serve::LithoServer server(
      FastLitho::from_model(init, cfg.resist_threshold), opts);
  // The tournament gets its own tracer (track 0 = controller phases,
  // 1..replicas = trainer replicas), constructed next to the server's so
  // the merged timelines align.
  obs::TraceConfig rollout_trace;
  rollout_trace.enabled = tracing;
  obs::Tracer rollout_tracer(rollout_trace,
                             1 + static_cast<std::uint32_t>(cfg.replicas));

  // A closed-loop client streams aerial requests for the entire tournament;
  // it never pauses for a swap.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::thread client([&] {
    Rng rng(7);
    std::vector<Grid<double>> tiles;
    for (int i = 0; i < 16; ++i) tiles.push_back(random_tile(64, rng));
    std::vector<std::future<Grid<double>>> window;
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      window.push_back(server.submit(tiles[i++ % tiles.size()], 32));
      if (window.size() >= 4) {
        for (auto& f : window) {
          (void)f.get();
          served.fetch_add(1, std::memory_order_relaxed);
        }
        window.clear();
      }
    }
    for (auto& f : window) {
      (void)f.get();
      served.fetch_add(1, std::memory_order_relaxed);
    }
  });

  rollout::RolloutController controller(cfg, train_set, holdout);
  controller.set_observer(registry.get(), &rollout_tracer);
  WallTimer timer;
  const rollout::RolloutStats stats = controller.run(&server);
  const double secs = timer.seconds();
  stop.store(true, std::memory_order_relaxed);
  client.join();

  std::printf("round  winner  base_lr    holdout_mse   generation  secs\n");
  for (const rollout::RoundResult& r : stats.rounds) {
    std::printf("%5d  %6d  %.2e  %.5e  %10llu  %.2f\n", r.round, r.winner,
                static_cast<double>(r.winner_lr), r.winner_loss,
                static_cast<unsigned long long>(r.generation), r.seconds);
  }
  std::printf("\nserved %llu requests across %llu hot-swaps in %.2fs "
              "(server now at generation %llu)\n",
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(stats.swaps), secs,
              static_cast<unsigned long long>(server.generation()));

  // Spot check: the live server now answers with the final winner's
  // kernels, bit for bit (when the last round published one; a round with
  // no finite held-out loss publishes nothing, and fails the run).
  bool identical = false;
  if (stats.rounds.back().winner >= 0) {
    Rng rng(99);
    const Grid<double> probe = random_tile(64, rng);
    const FastLitho direct = FastLitho::from_model(
        controller.replica(stats.final_winner).model(), cfg.resist_threshold);
    identical =
        server.submit(probe, 32).get() == direct.aerial_from_mask(probe, 32);
    std::printf("spot check vs final winner's direct FastLitho: %s\n",
                identical ? "bit-identical" : "MISMATCH");
  } else {
    std::printf("spot check skipped: the last round had no finite loss\n");
  }

  // Unified metrics snapshot: serving shards, tournament outcome and
  // per-replica trainer phase seconds from the one shared registry.
  {
    std::ostringstream os;
    obs::write_metrics_text(os, registry->snapshot());
    std::printf("\nmetrics snapshot:\n%s", os.str().c_str());
  }
  if (tracing) {
    obs::write_chrome_trace_file(trace_path,
                                 {&server.tracer(), &rollout_tracer});
    std::printf("\nwrote trace to %s (serve + rollout process groups)\n",
                trace_path.c_str());
  }

  server.stop();
  return identical ? 0 : 1;
}
