// Serving-layer throughput: LithoServer micro-batching against the raw
// compute floor (DESIGN.md §7.5).
//
// Kernel values do not affect runtime, so the kernel set is synthesized
// directly (no training) at the golden engine's shape class.  Three
// strategies answer the same stream of mask->aerial requests:
//
//   direct_serial            one thread, one aerial_from_mask per request —
//                            the raw compute floor, no serving overhead.
//   served_open_loop         LithoServer, one submitter streaming every
//                            request through the bounded queue (backpressure
//                            paces it), then collecting futures — the
//                            batch-friendliest load.
//   served_closed_loop       LithoServer, N clients each keeping a small
//                            pipeline of outstanding requests (closed loop,
//                            like examples/serve_demo.cpp).
//
// They land in serve_throughput.csv (absolute reqs/s, not gated; the
// repository benchmark's `serve` workload carries the noise-banded serving
// figures).
//
// A second scenario (DESIGN.md §9.5) measures *overload*: an open-loop
// arrival schedule at ~2x the measured open-loop capacity, where requests
// arrive on a fixed clock whether or not the server keeps up — the regime
// the DOINN/TEMPO-style throughput tables never report.  Without admission
// control the queue fills and every request pays the full queueing delay;
// with a SloPolicy (+ autotune) the server sheds doomed requests at submit
// or on dequeue, and the accepted requests' p99 stays under the SLO target
// while goodput holds near capacity.  Recorded in
// bench/baselines/serve_slo.csv (slo_headroom = target_p99 / measured p99
// >= 1 and goodput_vs_capacity >= 0.9 are the gated acceptance numbers).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
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
    // A few random rectangles, like a contact/metal tile.
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

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  log_simd_arm();
  // Default workload: batch-friendly load — many small tiles (an OPC-style
  // tile sweep), where per-request overhead rivals compute and coalescing
  // pays.  At heavier per-request compute (e.g. --mask-px 64 --rank 16)
  // every strategy converges on the compute floor.
  const int reqs = flags.get_int("reqs", 512);
  const int mask_px = flags.get_int("mask-px", 32);
  const int out_px = flags.get_int("out-px", 16);
  const int rank = flags.get_int("rank", 8);
  const int kdim = flags.get_int("kdim", 9);
  const int shards = flags.get_int("shards", 1);
  const int max_batch = flags.get_int("max-batch", 16);
  const int max_delay_us = flags.get_int("max-delay-us", 300);
  const int clients = flags.get_int("clients", 4);
  const int depth = flags.get_int("depth", 16);

  std::printf("== Serving throughput: micro-batched LithoServer ==\n");
  std::printf("reqs=%d mask=%dpx out=%dpx rank=%d kdim=%d shards=%d "
              "max_batch=%d max_delay=%dus\n\n",
              reqs, mask_px, out_px, rank, kdim, shards, max_batch,
              max_delay_us);

  Rng rng(20260730);
  const std::vector<Grid<cd>> kernels = synth_kernels(rank, kdim, rng);
  const std::vector<Grid<double>> masks = synth_masks(reqs, mask_px, rng);

  const auto serve_options = [&] {
    serve::ServeOptions opts;
    opts.shards = shards;
    opts.queue_capacity = 64;
    opts.batch.max_batch = max_batch;
    opts.batch.max_delay = std::chrono::microseconds(max_delay_us);
    return opts;
  }();

  // --- direct serial loop (compute floor) --------------------------------
  const double direct_tp = [&] {
    const FastLitho fast{std::vector<Grid<cd>>(kernels)};
    (void)fast.aerial_from_mask(masks[0], out_px);  // warm plans + cache
    WallTimer t;
    for (const Grid<double>& m : masks) (void)fast.aerial_from_mask(m, out_px);
    return reqs / t.seconds();
  }();

  // --- served, open loop --------------------------------------------------
  const double served_open_tp = [&] {
    serve::LithoServer server(FastLitho{std::vector<Grid<cd>>(kernels)},
                              serve_options);
    (void)server.submit(masks[0], out_px).get();  // warm engines
    WallTimer t;
    std::vector<std::future<Grid<double>>> futs;
    futs.reserve(masks.size());
    for (const Grid<double>& m : masks) futs.push_back(server.submit(m, out_px));
    for (auto& f : futs) (void)f.get();
    const double tp = reqs / t.seconds();
    const serve::ShardStats st = server.stats();
    std::printf("  open loop:   %" PRIu64 " batches, %.1f avg occupancy, "
                "p50 %s, p99 %s\n",
                static_cast<std::uint64_t>(st.batches),
                st.mean_batch_occupancy,
                latency_str(st.p50_latency_us, st.latency_samples).c_str(),
                latency_str(st.p99_latency_us, st.latency_samples).c_str());
    return tp;
  }();

  // --- served, closed loop (pipelined clients) ----------------------------
  const double served_closed_tp = [&] {
    serve::LithoServer server(FastLitho{std::vector<Grid<cd>>(kernels)},
                              serve_options);
    (void)server.submit(masks[0], out_px).get();
    const int per_client = reqs / clients;
    WallTimer t;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::future<Grid<double>>> window;
        for (int i = 0; i < per_client; ++i) {
          window.push_back(server.submit(
              masks[static_cast<std::size_t>(c * per_client + i)], out_px));
          if (static_cast<int>(window.size()) >= depth) {
            for (auto& f : window) (void)f.get();
            window.clear();
          }
        }
        for (auto& f : window) (void)f.get();
      });
    }
    for (auto& th : threads) th.join();
    return clients * per_client / t.seconds();
  }();

  TablePrinter tp({"Mode", "reqs/s"}, 16);
  tp.row({"direct_serial", fmt(direct_tp, 1)});
  tp.row({"served_open_loop", fmt(served_open_tp, 1)});
  tp.row({"served_closed_loop", fmt(served_closed_tp, 1)});
  tp.rule();

  CsvWriter csv(out_dir() + "/serve_throughput.csv", {"mode", "reqs_per_s"});
  csv.row({"direct_serial", fmt(direct_tp, 1)});
  csv.row({"served_open_loop", fmt(served_open_tp, 1)});
  csv.row({"served_closed_loop", fmt(served_closed_tp, 1)});

  // --- overload: open-loop arrivals at ~over_factor x capacity ------------
  // Heavier per-request compute than the coalescing scenario above
  // (out_px 32 ≈ 4x out_px 16): overload shedding is about protecting the
  // *compute*, and at tiny per-request cost the load generator itself —
  // sharing this 1-core box with the shard worker — would distort goodput.
  // The SLO is sized for this class of box: ~6 ms of queueing budget plus
  // a worst-case tuned batch (~4 ms) plus normal scheduler noise lands
  // accepted p99 well under 20 ms, while the blind overload run sits at
  // several times that.  Longer phases (8k requests ≈ 1 s each) keep the
  // p99 estimate out of reach of a single multi-ms host stall.
  const int over_reqs = flags.get_int("over-reqs", 8192);
  const int over_out_px = flags.get_int("over-out-px", 32);
  const double over_factor = flags.get_double("over-factor", 2.0);
  const int slo_p99_us = flags.get_int("slo-p99-us", 20000);
  const int slo_queue_wait_us = flags.get_int("slo-queue-wait-us", 6000);

  using Clock = std::chrono::steady_clock;
  struct OverloadResult {
    double offered_rps = 0.0;
    double goodput_rps = 0.0;
    double p99_us = 0.0;
    std::uint64_t latency_samples = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    serve::ShardStats stats;
  };
  // rate == 0: unpaced — submit as fast as backpressure allows.  That run
  // both measures capacity (its goodput) and shows the failure mode this
  // scenario exists for: without admission control, overload means every
  // request pays the full queue_capacity of queueing delay.
  const auto run_overload = [&](bool admission, double rate) {
    serve::ServeOptions opts = serve_options;
    // Deep enough that, without admission control, queueing delay alone
    // blows the SLO.
    opts.queue_capacity = 256;
    if (admission) {
      serve::SloPolicy slo;
      slo.target_p99 = std::chrono::microseconds(slo_p99_us);
      slo.max_queue_wait = std::chrono::microseconds(slo_queue_wait_us);
      slo.autotune = true;
      // Past ~2x the default batch the sweep is fully amortized on this
      // workload, so larger batches only add latency: keep the tuner's
      // batch growth inside the SLO's interest.
      slo.tuner.max_batch = 2 * max_batch;
      opts.slo = slo;
    }
    serve::LithoServer server(FastLitho{std::vector<Grid<cd>>(kernels)}, opts);
    // Warm engines with an explicit far-future deadline: the SLO default
    // (submit + max_queue_wait) could shed this very first request if the
    // freshly spawned worker's first dequeue hits a scheduler stall, and
    // an unhandled DeadlineExceeded would abort the bench.
    (void)server
        .submit(masks[0], over_out_px, serve::RequestKind::kAerial,
                Clock::now() + std::chrono::hours(1))
        .get();
    std::vector<std::future<Grid<double>>> futs;
    futs.reserve(static_cast<std::size_t>(over_reqs));
    const auto start = Clock::now();
    for (int i = 0; i < over_reqs; ++i) {
      // Open loop: request i is due at a fixed offset from the start,
      // regardless of how the server is doing.  Pacing is checked once per
      // small burst — on this 1-core box a per-request sleep would charge
      // two context switches per arrival to the same core the shard worker
      // computes on.  Oversleeps are repaid by submitting the backlog
      // immediately, so the average rate holds.
      if (rate > 0.0 && i % 8 == 0) {
        const auto due = start + std::chrono::microseconds(
                                     static_cast<std::int64_t>(i * 1e6 / rate));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
      }
      futs.push_back(server.submit(
          masks[static_cast<std::size_t>(i) % masks.size()], over_out_px));
    }
    const double inject_secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    // Goodput window ends when the server has resolved every accepted
    // request (completed == submitted implies empty queue and batcher) —
    // NOT when this thread has finished .get()ing 8k futures: rethrowing
    // thousands of shed exceptions is client-side bookkeeping that must
    // not count against the server.
    // 1 ms poll: each stats() call copies every shard's latency histogram
    // (672 buckets), and tighter polling would steal measurable CPU from
    // the worker's drain on a 1-core box — inflating the goodput
    // denominator.
    while (true) {
      const serve::ShardStats st = server.stats();
      if (st.completed == st.submitted) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double drain_secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    OverloadResult r;
    for (auto& f : futs) {
      try {
        (void)f.get();
        ++r.ok;
      } catch (const serve::DeadlineExceeded&) {
        ++r.shed;
      }
    }
    r.offered_rps = over_reqs / inject_secs;
    r.goodput_rps = static_cast<double>(r.ok) / drain_secs;
    r.stats = server.stats();
    r.p99_us = r.stats.p99_latency_us;
    r.latency_samples = r.stats.latency_samples;
    return r;
  };

  // kGateRepeats rounds, each a capacity run followed by an admission run
  // offered over_factor x that round's capacity, so both halves of a
  // round's goodput ratio share the box's state.  The gated figures are
  // medians over the rounds (one host stall moves one round, not the
  // gate); the rows report the median of each column.
  std::vector<double> cap_offered, cap_goodput, cap_p99, adm_offered,
      adm_goodput, adm_p99, ratios;
  OverloadResult cap, adm;
  for (int round = 0; round < kGateRepeats; ++round) {
    cap = run_overload(/*admission=*/false, /*rate=*/0.0);
    adm = run_overload(/*admission=*/true, over_factor * cap.goodput_rps);
    cap_offered.push_back(cap.offered_rps);
    cap_goodput.push_back(cap.goodput_rps);
    cap_p99.push_back(cap.p99_us);
    adm_offered.push_back(adm.offered_rps);
    adm_goodput.push_back(adm.goodput_rps);
    adm_p99.push_back(adm.p99_us);
    ratios.push_back(adm.goodput_rps / cap.goodput_rps);
  }
  cap.offered_rps = median(cap_offered);
  cap.goodput_rps = median(cap_goodput);
  cap.p99_us = median(cap_p99);
  adm.offered_rps = median(adm_offered);
  adm.goodput_rps = median(adm_goodput);
  adm.p99_us = median(adm_p99);
  std::printf("\n== Overload: open loop at %.1fx capacity (median %.0f reqs/s "
              "capacity over %d rounds), SLO p99 <= %d us, out_px %d ==\n",
              over_factor, cap.goodput_rps, kGateRepeats, slo_p99_us,
              over_out_px);
  const auto spread = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return fmt(v.front(), 2) + ".." + fmt(v.back(), 2);
  };
  std::printf("  goodput_vs_capacity per round: %s\n", spread(ratios).c_str());

  TablePrinter otp({"Mode", "offered r/s", "goodput r/s", "p99", "shed"}, 16);
  otp.row({"capacity_open_loop", fmt(cap.offered_rps, 1),
           fmt(cap.goodput_rps, 1), latency_str(cap.p99_us, cap.latency_samples),
           fmt(static_cast<double>(cap.shed), 0)});
  otp.row({"overload_admission", fmt(adm.offered_rps, 1),
           fmt(adm.goodput_rps, 1), latency_str(adm.p99_us, adm.latency_samples),
           fmt(static_cast<double>(adm.shed), 0)});
  otp.rule();
  std::printf("  capacity row = no admission control: at overload the full "
              "queue alone puts p99 at %.0f us\n", cap.p99_us);
  std::printf("  admission (last round): %" PRIu64 " shed at submit, %" PRIu64
              " shed in queue, %" PRIu64 " autotune updates, tuned policy "
              "(max_batch %d, max_delay %.0f us)\n",
              adm.stats.shed.shed_at_submit, adm.stats.shed.shed_in_queue,
              adm.stats.autotune_updates, adm.stats.max_batch,
              adm.stats.max_delay_us);

  const double headroom = slo_p99_us / adm.p99_us;
  const double goodput_vs_capacity = median(ratios);
  CsvWriter slo_csv(out_dir() + "/serve_slo.csv",
                    {"mode", "offered_rps", "goodput_rps", "p99_us",
                     "slo_headroom", "goodput_vs_capacity"});
  slo_csv.row({"capacity_open_loop", fmt(cap.offered_rps, 1),
               fmt(cap.goodput_rps, 1), fmt(cap.p99_us, 0), "", ""});
  slo_csv.row({"overload_admission", fmt(adm.offered_rps, 1),
               fmt(adm.goodput_rps, 1), fmt(adm.p99_us, 0), fmt(headroom, 2),
               fmt(goodput_vs_capacity, 2)});

  std::printf(
      "\nOverload acceptance: accepted-request p99 %.0f us vs SLO %d us "
      "(headroom %.2fx, target >= 1x); goodput %.2fx measured capacity "
      "(target >= 0.9x).\n",
      adm.p99_us, slo_p99_us, headroom, goodput_vs_capacity);

  // --- observability overhead: tracing off vs on (ISSUE 8) ----------------
  // Same batch-friendly open-loop workload as the throughput scenario —
  // the regime where per-request bookkeeping rivals compute, i.e. where
  // instrumentation overhead would show if it existed.  trace_off is the
  // production default (metrics counters/histogram always on, tracing
  // one branch per site); trace_on_sampled adds span timestamps at the
  // default 1/16 sampling.  overhead_vs_off = off_tp / on_tp is the gated
  // ratio (ceiling 1.05 in bench/check_baselines.py): instrumented serving
  // must keep >= 0.95x the uninstrumented throughput.
  const auto run_obs = [&](bool trace_on) {
    serve::ServeOptions opts = serve_options;
    opts.trace.enabled = trace_on;  // default sample_every / ring capacity
    serve::LithoServer server(FastLitho{std::vector<Grid<cd>>(kernels)}, opts);
    (void)server.submit(masks[0], out_px).get();  // warm engines
    WallTimer t;
    std::vector<std::future<Grid<double>>> futs;
    futs.reserve(masks.size());
    for (const Grid<double>& m : masks) {
      futs.push_back(server.submit(m, out_px));
    }
    for (auto& f : futs) (void)f.get();
    return reqs / t.seconds();
  };
  // kGateRepeats interleaved (off, on) pairs; the gated ratio is the
  // median of the per-pair ratios, the rows the median throughputs.
  std::vector<double> off_runs, on_runs, overheads;
  for (int pair = 0; pair < kGateRepeats; ++pair) {
    off_runs.push_back(run_obs(false));
    on_runs.push_back(run_obs(true));
    overheads.push_back(off_runs.back() / on_runs.back());
  }
  const double off_tp = median(off_runs);
  const double on_tp = median(on_runs);
  const double overhead_vs_off = median(overheads);
  std::printf("\n  overhead_vs_off per pair: %s\n", spread(overheads).c_str());
  std::printf("\n== Observability overhead: tracing off vs on "
              "(default 1/16 sampling) ==\n");
  TablePrinter obs_tp({"Mode", "reqs/s", "vs off"}, 16);
  obs_tp.row({"trace_off", fmt(off_tp, 1), "1.00x"});
  obs_tp.row({"trace_on_sampled", fmt(on_tp, 1),
              fmt(overhead_vs_off, 2) + "x"});
  obs_tp.rule();

  CsvWriter obs_csv(out_dir() + "/obs_overhead.csv",
                    {"mode", "reqs_per_s", "overhead_vs_off"});
  obs_csv.row({"trace_off", fmt(off_tp, 1), "1.00"});
  obs_csv.row({"trace_on_sampled", fmt(on_tp, 1), fmt(overhead_vs_off, 2)});

  std::printf(
      "\nObservability acceptance: trace-off throughput is %.2fx the "
      "trace-on run (ceiling <= 1.05x, i.e. instrumented serving keeps "
      ">= 0.95x uninstrumented throughput).\n",
      overhead_vs_off);
  return 0;
}
