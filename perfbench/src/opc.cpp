// opc: gradient-based mask correction (ILT) with the batched OpcEngine.
// One operation is one OpcEngine::step() over the whole mask batch; the
// throughput unit is the mask-iteration.  Jobs restart on the next intents
// of a seeded pool every fixed number of iterations.

#include <cmath>
#include <limits>
#include <memory>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "layout/datasets.hpp"
#include "layout/raster.hpp"
#include "nitho/model.hpp"
#include "nn/ops_fft.hpp"
#include "nn/optimizer.hpp"
#include "opc/engine.hpp"

namespace perfbench {

using nitho::cd;
using nitho::Grid;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Scale {
  int tile_nm;
  int pool;       ///< intents, cycled a batch at a time
  int batch;
  int mask_px;
  int sim_px;
  int job_iters;  ///< iterations per job
  int scored;     ///< first jobs scored for epe_px / psnr_db
  int setups;
  int min_steps;
};

Scale scale_for(bool tiny) {
  if (tiny) return {256, 4, 2, 32, 16, 5, 2, 2, 10};
  return {1024, 64, 8, 128, 64, 40, 8, 5, 500};
}

struct State {
  std::shared_ptr<const std::vector<Grid<cd>>> kernels;
  std::vector<Grid<double>> intents;
  std::unique_ptr<nitho::opc::OpcEngine> engine;
};

std::vector<Grid<double>> job_intents(const State& st, const Scale& s, int job) {
  std::vector<Grid<double>> out;
  for (int j = 0; j < s.batch; ++j) {
    out.push_back(st.intents[static_cast<std::size_t>(
        (job * s.batch + j) % static_cast<int>(st.intents.size()))]);
  }
  return out;
}

nitho::opc::OpcConfig opc_config(const Scale& s) {
  nitho::opc::OpcConfig cfg;
  cfg.mask_px = s.mask_px;
  cfg.sim_px = s.sim_px;
  return cfg;
}

std::unique_ptr<State> set_up(const Scale& s, std::uint64_t seed) {
  auto st = std::make_unique<State>();
  const nitho::NithoModel model(table1_model_config(), s.tile_nm, 193.0,
                                1.35);
  st->kernels = std::make_shared<const std::vector<Grid<cd>>>(
      model.export_kernels());
  nitho::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x0c);
  for (int i = 0; i < s.pool; ++i) {
    st->intents.push_back(nitho::rasterize(
        nitho::make_b1_layout(s.tile_nm, rng), s.tile_nm / s.mask_px));
  }
  st->engine = std::make_unique<nitho::opc::OpcEngine>(st->kernels, opc_config(s));
  // Warm-up step (graph arena, FFT plans), then a fresh job for the run.
  st->engine->start(job_intents(*st, s, 0));
  (void)st->engine->step();
  st->engine->start(job_intents(*st, s, 0));
  return st;
}

}  // namespace

Result run_opc(const Args& args) {
  const Scale s = scale_for(args.tiny);
  // One busy thread, as for train: a step is a chain of short parallel_for
  // calls, and on a shared box a preempted helper stalls each of them.
  nitho::set_parallel_workers(1);
  Result r;
  std::unique_ptr<State> st;
  const std::vector<double> setups =
      time_setups(args.trace ? 1 : s.setups, [&] {
        st.reset();
        st = set_up(s, args.seed);
      });
  nitho::opc::OpcEngine& engine = *st->engine;
  const double bright = engine.config().target_bright;

  int job = 0;
  int jobs_scored = 0;
  double epe_sum = 0.0, psnr_sum = 0.0, excluded_s = 0.0;
  // One operation: a step of the current job; a finished job is checked,
  // scored while among the first `scored`, and replaced by the next one.
  const auto op = [&] {
    const nitho::opc::OpcStepStats st_step = engine.step();
    r.attempted += s.batch;
    if (!std::isfinite(st_step.total_loss)) r.fail(s.batch);
    if (engine.iteration() < s.job_iters) return;
    const std::vector<float>& losses = engine.losses();
    if (!(losses.back() < losses.front())) r.fail(s.batch);
    if (job < s.scored) {
      const auto t = Clock::now();
      epe_sum += engine.mean_epe_px();
      psnr_sum += 10.0 * std::log10(bright * bright / losses.back());
      ++jobs_scored;
      excluded_s += seconds_since(t);
    }
    engine.start(job_intents(*st, s, ++job));
  };

  if (!args.trace) {
    TimedPhase tp;
    const auto t0 = Clock::now();
    while (static_cast<int>(tp.latency_ms.size()) < s.min_steps ||
           jobs_scored < s.scored ||
           seconds_since(t0) - excluded_s < args.seconds) {
      const double excluded_before = excluded_s;
      const std::int64_t failed = r.failed;
      const auto t = Clock::now();
      op();
      tp.latency_ms.push_back(ms_since(t) -
                              1e3 * (excluded_s - excluded_before));
      tp.done(seconds_since(t0) - excluded_s,
              s.batch - static_cast<double>(r.failed - failed));
    }
    tp.wall_s = seconds_since(t0) - excluded_s;
    add_end_to_end(r, tp, setups, psnr_sum / s.scored, epe_sum / s.scored);
    r.notes.push_back("op = one OpcEngine::step over " +
                      std::to_string(s.batch) + " masks; throughput counts "
                      "mask-iterations; jobs of " +
                      std::to_string(s.job_iters) + " iterations, first " +
                      std::to_string(s.scored) + " scored");
    return r;
  }

  // Standalone inputs for the layer calls, shaped like the engine's graph.
  const int kdim = (*st->kernels)[0].rows();
  const int rank = static_cast<int>(st->kernels->size());
  nitho::nn::Tensor kt({rank, kdim, kdim, 2});
  for (int i = 0; i < rank; ++i) {
    const Grid<cd>& g = (*st->kernels)[static_cast<std::size_t>(i)];
    for (std::size_t p = 0; p < g.size(); ++p) {
      const std::int64_t at = (static_cast<std::int64_t>(i) *
                                   static_cast<std::int64_t>(g.size()) +
                               static_cast<std::int64_t>(p)) * 2;
      kt[at] = static_cast<float>(g[p].real());
      kt[at + 1] = static_cast<float>(g[p].imag());
    }
  }
  const nitho::nn::Var theta = nitho::nn::make_leaf(
      nitho::nn::Tensor({s.batch, s.mask_px, s.mask_px}), true);
  theta->ensure_grad().fill(1e-3f);
  nitho::nn::Adam adam({theta}, 0.05f);
  nitho::nn::GraphArena arena;
  std::vector<double> forward, crop, socs, adam_ms;
  const auto traced = [&]() -> double {
    const auto t = Clock::now();
    op();
    const double op_ms = ms_since(t);
    auto tl = Clock::now();
    (void)engine.forward_aerial();
    forward.push_back(ms_since(tl));
    nitho::nn::Tensor masks({s.batch, s.mask_px, s.mask_px});
    const std::vector<Grid<double>> current = engine.masks();
    for (std::size_t b = 0; b < current.size(); ++b) {
      for (std::size_t p = 0; p < current[b].size(); ++p) {
        masks[static_cast<std::int64_t>(b * current[b].size() + p)] =
            static_cast<float>(current[b][p]);
      }
    }
    {
      const nitho::nn::GraphArena::Scope scope(arena);
      tl = Clock::now();
      const nitho::nn::Var spectra = nitho::nn::fft2c_crop_batch(
          nitho::nn::make_leaf(masks, false), kdim);
      crop.push_back(ms_since(tl));
      tl = Clock::now();
      const nitho::nn::Var fields =
          nitho::nn::socs_field_from_spectrum_batch(spectra, kt, s.sim_px);
      socs.push_back(ms_since(tl));
    }
    arena.reset();
    tl = Clock::now();
    adam.step();
    adam_ms.push_back(ms_since(tl));
    return op_ms;
  };
  const auto collect = [&](double op_ms) {
    const double f = mean(forward), a = mean(adam_ms);
    ledger_add(r, "opc.step_ms", "ms", op_ms, 100.0, "OpcEngine::step");
    ledger_add(r, "opc.forward_ms", "ms", f, 100.0 * f / op_ms,
               "forward_aerial (no-grad forward)");
    ledger_add(r, "nn.fft2c_crop_batch_ms", "ms", mean(crop),
               100.0 * mean(crop) / op_ms, "forward, inside opc.forward");
    ledger_add(r, "nn.socs_from_spectrum_batch_ms", "ms", mean(socs),
               100.0 * mean(socs) / op_ms, "forward, inside opc.forward");
    ledger_add(r, "nn.adam_ms", "ms", a, 100.0 * a / op_ms,
               "Adam::step at the theta shape");
    ledger_add(r, "unattributed_pct", "%", 100.0 * (op_ms - f - a) / op_ms,
               kNaN, "step - (forward + Adam): the backward pass and loss");
    for (auto* v : {&forward, &crop, &socs, &adam_ms}) v->clear();
  };
  traced_repeats(r, args.seconds / 12.0, args.tiny ? 2 : 5, args.tiny ? 2 : 20,
                 1, op, traced, collect);
  return r;
}

}  // namespace perfbench
