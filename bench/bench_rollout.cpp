// Hot-swap tail latency: served p99 across rollout kernel swaps
// (DESIGN.md §11).
//
// The rollout tournament (src/rollout/) publishes each round's winner into
// the live LithoServer via swap_kernels() while traffic is in flight.
// Capture-at-submit makes that *correct* by construction — a request
// computes on the snapshot it captured at submit, so results are bit-exact
// per generation (pinned in tests/test_rollout.cpp).  What is left to
// measure is *latency*: does a swap landing mid-stream put a spike into the
// served tail?
//
// Three phases over the same synthesized workload (kernel values do not
// affect runtime, mirroring bench_serve):
//
//   capacity_open_loop  unpaced open loop, no swaps — measures what the box
//                       can do; used only to size the paced phases' rate.
//   steady_open_loop    open loop at ~60% of capacity, no swaps: the served
//                       tail with the snapshot never changing.
//   across_swap         the same paced load with several swap_kernels()
//                       calls landing mid-stream from a separate thread
//                       (the rollout controller's position).  Replacement
//                       snapshots are pre-built and pre-warmed before the
//                       load starts — the discipline a deployment should
//                       use: FFT-plan/engine warm-up is paid off the
//                       serving path, so the measured cost is the
//                       publication itself (a per-shard pointer store under
//                       the snapshot mutex) plus whatever cold state the
//                       new snapshot still carries.
//
// Acceptance: across-swap p99 stays within 1.5x the steady p99.  The ratio
// (swap_p99_vs_steady, the median over kGateRepeats interleaved pairs) is
// recorded in bench/baselines/rollout_swap.csv and
// *ceiling*-gated by bench/check_baselines.py — smaller is better here,
// unlike the throughput ratios.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "io/csv.hpp"
#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "nitho/fast_litho.hpp"
#include "serve/server.hpp"

using namespace nitho;
using namespace nitho::bench;

namespace {

std::vector<Grid<cd>> synth_kernels(int rank, int kdim, Rng& rng) {
  std::vector<Grid<cd>> kernels;
  kernels.reserve(static_cast<std::size_t>(rank));
  for (int k = 0; k < rank; ++k) {
    Grid<cd> g(kdim, kdim);
    for (auto& z : g) z = cd(rng.normal(), rng.normal());
    kernels.push_back(std::move(g));
  }
  return kernels;
}

std::vector<Grid<double>> synth_masks(int count, int px, Rng& rng) {
  std::vector<Grid<double>> masks;
  masks.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Grid<double> m(px, px, 0.0);
    for (int r = 0; r < 6; ++r) {
      const int h = rng.randint(2, px / 4), w = rng.randint(2, px / 4);
      const int r0 = rng.randint(0, px - h), c0 = rng.randint(0, px - w);
      for (int y = r0; y < r0 + h; ++y)
        for (int x = c0; x < c0 + w; ++x) m(y, x) = 1.0;
    }
    masks.push_back(std::move(m));
  }
  return masks;
}

using serve::latency_str;

struct PhaseResult {
  double offered_rps = 0.0;
  double goodput_rps = 0.0;
  double p99_us = 0.0;
  std::uint64_t latency_samples = 0;
  std::uint64_t generation = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  log_simd_arm();
  const int reqs = flags.get_int("reqs", 4096);
  const int mask_px = flags.get_int("mask-px", 32);
  const int out_px = flags.get_int("out-px", 16);
  const int rank = flags.get_int("rank", 8);
  const int kdim = flags.get_int("kdim", 9);
  const int shards = flags.get_int("shards", 1);
  const int max_batch = flags.get_int("max-batch", 16);
  const int max_delay_us = flags.get_int("max-delay-us", 300);
  const int swaps = flags.get_int("swaps", 4);
  // 60% of capacity: loaded enough that batching is exercised, light enough
  // that queueing delay does not drown the swap signal in the tail.
  const double rate_frac = flags.get_double("rate-frac", 0.6);

  std::printf("== Rollout hot-swap: served p99 across swap_kernels ==\n");
  std::printf("reqs=%d mask=%dpx out=%dpx rank=%d kdim=%d shards=%d "
              "max_batch=%d max_delay=%dus swaps=%d\n\n",
              reqs, mask_px, out_px, rank, kdim, shards, max_batch,
              max_delay_us, swaps);

  Rng rng(20260807);
  const std::vector<Grid<cd>> kernels = synth_kernels(rank, kdim, rng);
  const std::vector<Grid<double>> masks = synth_masks(256, mask_px, rng);

  const auto serve_options = [&] {
    serve::ServeOptions opts;
    opts.shards = shards;
    opts.queue_capacity = 64;
    opts.batch.max_batch = max_batch;
    opts.batch.max_delay = std::chrono::microseconds(max_delay_us);
    return opts;
  }();

  using Clock = std::chrono::steady_clock;

  // rate == 0: unpaced.  swap_count > 0: a swapper thread publishes that
  // many pre-warmed replacement snapshots at even fractions of the paced
  // injection window (the rollout controller's position: concurrent with
  // submits, never synchronized with them).
  const auto run_phase = [&](double rate, int swap_count) {
    serve::LithoServer server(FastLitho{std::vector<Grid<cd>>(kernels)},
                              serve_options);
    (void)server.submit(masks[0], out_px).get();  // warm engines + plans

    // Pre-build and pre-warm the replacement snapshots off the serving
    // path; each swap then costs only the publication.  Distinct kernel
    // values per generation keep this honest — a swap to an identical
    // snapshot could hide value-dependent caching.
    std::vector<FastLitho> fresh;
    fresh.reserve(static_cast<std::size_t>(swap_count));
    for (int j = 0; j < swap_count; ++j) {
      FastLitho f{synth_kernels(rank, kdim, rng)};
      (void)f.aerial_from_mask(masks[0], out_px);
      fresh.push_back(std::move(f));
    }

    const double expect_secs = rate > 0.0 ? reqs / rate : 0.5;
    const auto start = Clock::now();
    std::thread swapper;
    if (swap_count > 0) {
      swapper = std::thread([&] {
        for (int j = 0; j < swap_count; ++j) {
          // Swaps land inside the first 80% of the injection window so each
          // publication has live traffic on both sides of it.
          const auto due = start + std::chrono::microseconds(
              static_cast<std::int64_t>((j + 1) * 0.8 * expect_secs * 1e6 /
                                        swap_count));
          std::this_thread::sleep_until(due);
          (void)server.swap_kernels(std::move(fresh[static_cast<std::size_t>(j)]));
        }
      });
    }

    std::vector<std::future<Grid<double>>> futs;
    futs.reserve(static_cast<std::size_t>(reqs));
    for (int i = 0; i < reqs; ++i) {
      // Open loop: request i is due at a fixed offset from the start.
      // Pacing is checked once per small burst (see bench_serve for why).
      if (rate > 0.0 && i % 8 == 0) {
        const auto due = start + std::chrono::microseconds(
                                     static_cast<std::int64_t>(i * 1e6 / rate));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
      }
      futs.push_back(server.submit(
          masks[static_cast<std::size_t>(i) % masks.size()], out_px));
    }
    const double inject_secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    // Drain: completed == submitted means the queue and batcher are empty.
    while (true) {
      const serve::ShardStats st = server.stats();
      if (st.completed == st.submitted) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double drain_secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (swapper.joinable()) swapper.join();
    for (auto& f : futs) (void)f.get();

    const serve::ShardStats st = server.stats();
    PhaseResult r;
    r.offered_rps = reqs / inject_secs;
    r.goodput_rps = reqs / drain_secs;
    r.p99_us = st.p99_latency_us;
    r.latency_samples = st.latency_samples;
    r.generation = st.kernel_generation;
    return r;
  };

  const PhaseResult cap = run_phase(/*rate=*/0.0, /*swap_count=*/0);
  const double rate = rate_frac * cap.goodput_rps;
  std::printf("capacity %.0f reqs/s -> pacing both phases at %.0f reqs/s\n\n",
              cap.goodput_rps, rate);

  // kGateRepeats interleaved (steady, swap) pairs, so slow drift on a
  // shared box — allocator warm-up, thermal ramp, a neighbour's burst —
  // lands on both halves of a pair.  The gated ratio is the median of the
  // per-pair p99 ratios (a single host stall lands squarely in one tail);
  // the rows report the median of each column.
  std::vector<double> steady_offered, steady_goodput, steady_p99, swap_offered,
      swap_goodput, swap_p99, ratios;
  PhaseResult steady, swap;
  for (int pair = 0; pair < kGateRepeats; ++pair) {
    steady = run_phase(rate, 0);
    swap = run_phase(rate, swaps);
    if (swap.generation != static_cast<std::uint64_t>(swaps)) {
      std::fprintf(stderr, "FATAL: expected generation %d after %d swaps, got %"
                   PRIu64 "\n", swaps, swaps, swap.generation);
      return 1;
    }
    steady_offered.push_back(steady.offered_rps);
    steady_goodput.push_back(steady.goodput_rps);
    steady_p99.push_back(steady.p99_us);
    swap_offered.push_back(swap.offered_rps);
    swap_goodput.push_back(swap.goodput_rps);
    swap_p99.push_back(swap.p99_us);
    ratios.push_back(swap.p99_us / steady.p99_us);
  }
  steady.offered_rps = median(steady_offered);
  steady.goodput_rps = median(steady_goodput);
  steady.p99_us = median(steady_p99);
  swap.offered_rps = median(swap_offered);
  swap.goodput_rps = median(swap_goodput);
  swap.p99_us = median(swap_p99);
  std::sort(ratios.begin(), ratios.end());
  std::printf("swap_p99_vs_steady per pair: %s..%s\n\n",
              fmt(ratios.front(), 2).c_str(), fmt(ratios.back(), 2).c_str());

  const double ratio = median(ratios);
  TablePrinter tp({"Mode", "offered r/s", "goodput r/s", "p99", "gen"}, 16);
  tp.row({"capacity_open_loop", fmt(cap.offered_rps, 1),
          fmt(cap.goodput_rps, 1), latency_str(cap.p99_us, cap.latency_samples),
          "0"});
  tp.row({"steady_open_loop", fmt(steady.offered_rps, 1),
          fmt(steady.goodput_rps, 1),
          latency_str(steady.p99_us, steady.latency_samples), "0"});
  tp.row({"across_swap", fmt(swap.offered_rps, 1), fmt(swap.goodput_rps, 1),
          latency_str(swap.p99_us, swap.latency_samples), fmt(swaps, 0)});
  tp.rule();

  CsvWriter csv(out_dir() + "/rollout_swap.csv",
                {"mode", "offered_rps", "goodput_rps", "p99_us", "swaps",
                 "swap_p99_vs_steady"});
  csv.row({"capacity_open_loop", fmt(cap.offered_rps, 1),
           fmt(cap.goodput_rps, 1), fmt(cap.p99_us, 0), "0", ""});
  csv.row({"steady_open_loop", fmt(steady.offered_rps, 1),
           fmt(steady.goodput_rps, 1), fmt(steady.p99_us, 0), "0", "1.00"});
  csv.row({"across_swap", fmt(swap.offered_rps, 1), fmt(swap.goodput_rps, 1),
           fmt(swap.p99_us, 0), fmt(swaps, 0), fmt(ratio, 2)});

  std::printf(
      "\nRollout acceptance: p99 across %d hot-swaps is %.2fx the steady p99 "
      "(ceiling <= 1.5x).\n",
      swaps, ratio);
  return 0;
}
