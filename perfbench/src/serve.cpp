// serve: LithoServer with default ServeOptions, one shard and a pool of one
// worker, driven by one tiling client that keeps a closed window of
// outstanding requests.  One operation is one request; its latency runs
// from the submit call until the client holds the result.  The client
// consumes results in submission order, as a tiling client assembling a
// chip would.

#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fft/spectral.hpp"
#include "harness.hpp"
#include "layout/datasets.hpp"
#include "layout/raster.hpp"
#include "metrics/metrics.hpp"
#include "nitho/fast_litho.hpp"
#include "nitho/model.hpp"
#include "opc/engine.hpp"
#include "serve/server.hpp"

namespace perfbench {

using nitho::Grid;
using nitho::serve::LithoServer;
using nitho::serve::RequestKind;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Scale {
  int tile_nm;
  int pixel_nm;   ///< raster side = tile_nm / pixel_nm
  int pool;       ///< distinct masks, cycled
  int window;     ///< outstanding requests the client keeps
  int period;     ///< length of the seeded request sequence
  int scored;     ///< masks scored for psnr_db / epe_px (the pool first)
  int setups;
  int min_ops;
  int block;      ///< requests per traced-run block
};

Scale scale_for(bool tiny) {
  if (tiny) return {1024, 8, 8, 4, 64, 16, 2, 20, 64};
  return {1024, 4, 64, 16, 1024, 256, 5, 2000, 1024};
}

constexpr int kOutPx[2] = {32, 64};
constexpr nitho::DatasetKind kKinds[3] = {
    nitho::DatasetKind::B1, nitho::DatasetKind::B2m, nitho::DatasetKind::B2v};

struct Request {
  int mask = 0;
  int px = 0;  ///< index into kOutPx
  RequestKind kind = RequestKind::kAerial;
};

struct State {
  std::unique_ptr<nitho::FastLitho> direct;  ///< the synchronous API
  std::vector<Grid<double>> pool;
  std::vector<Request> seq;
  std::unique_ptr<LithoServer> server;
};

std::unique_ptr<LithoServer> make_server(const nitho::FastLitho& direct,
                                         bool trace) {
  nitho::serve::ServeOptions opts;  // defaults: 1 shard, batch 8 / 500 us
  if (trace) {
    opts.trace.enabled = true;
    opts.trace.sample_every = 1;
    opts.trace.ring_capacity = std::size_t{1} << 17;
  }
  return std::make_unique<LithoServer>(
      nitho::FastLitho(direct.kernels_shared(), direct.resist_threshold()),
      opts);
}

std::unique_ptr<State> set_up(const Scale& s, std::uint64_t seed) {
  auto st = std::make_unique<State>();
  const nitho::NithoModel model(table1_model_config(), s.tile_nm, 193.0,
                                1.35);
  st->direct = std::make_unique<nitho::FastLitho>(
      nitho::FastLitho::from_model(model, 0.25));
  nitho::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5e);
  for (int i = 0; i < s.pool; ++i) {
    st->pool.push_back(nitho::rasterize(
        nitho::make_layout(kKinds[i % 3], s.tile_nm, rng), s.pixel_nm));
  }
  for (int i = 0; i < s.period; ++i) {
    st->seq.push_back({i % s.pool, rng.randint(0, 1),
                       rng.bernoulli(0.5) ? RequestKind::kResist
                                          : RequestKind::kAerial});
  }
  st->server = make_server(*st->direct, false);
  // Warm-up: one request of every (out_px, kind) pair builds both engines.
  for (int px = 0; px < 2; ++px) {
    for (const RequestKind kind : {RequestKind::kAerial, RequestKind::kResist}) {
      (void)st->server->submit(st->pool[0], kOutPx[px], kind).get();
    }
  }
  return st;
}

/// What one closed-loop block observed.
struct Block {
  std::vector<double> latency_ms;
  std::vector<double> submit_us;
  std::vector<std::pair<double, double>> completions;  ///< (s, 1 if checked)
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  double wall_s = 0.0;
};

/// Drives `server` with a closed window until `seconds` have passed and at
/// least `min_requests` completed, checking every result against `ref`.
Block closed_loop(LithoServer& server, const State& st, const Scale& s,
                  const std::vector<Grid<double>>& ref, std::int64_t& next,
                  double seconds, std::int64_t min_requests) {
  struct Pending {
    std::future<Grid<double>> result;
    Clock::time_point submitted;
    std::size_t ref;
  };
  Block b;
  std::deque<Pending> window;
  const auto t0 = Clock::now();
  const auto submit = [&] {
    const Request& q = st.seq[static_cast<std::size_t>(
        next++ % static_cast<std::int64_t>(st.seq.size()))];
    Grid<double> mask = st.pool[static_cast<std::size_t>(q.mask)];
    const auto t = Clock::now();
    auto fut = server.submit(std::move(mask), kOutPx[q.px], q.kind);
    b.submit_us.push_back(1e3 * ms_since(t));
    const std::size_t idx =
        (static_cast<std::size_t>(q.mask) * 2 + static_cast<std::size_t>(q.px)) *
            2 +
        (q.kind == RequestKind::kResist ? 1 : 0);
    window.push_back({std::move(fut), t, idx});
  };
  for (int i = 0; i < s.window; ++i) submit();
  while (!window.empty()) {
    Pending p = std::move(window.front());
    window.pop_front();
    bool ok = false;
    try {
      const Grid<double> got = p.result.get();
      b.latency_ms.push_back(ms_since(p.submitted));
      const Grid<double>& want = ref[p.ref];
      ok = got.same_shape(want) &&
           std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(double)) == 0;
    } catch (const std::exception&) {
    }
    if (!ok) ++b.failed;
    b.completions.emplace_back(seconds_since(t0), ok ? 1.0 : 0.0);
    ++b.completed;
    if (b.completed + static_cast<std::int64_t>(window.size()) <
            min_requests ||
        seconds_since(t0) < seconds) {
      submit();
    }
  }
  b.wall_s = seconds_since(t0);
  return b;
}

std::uint64_t shed_total(const LithoServer& server) {
  const auto st = server.stats();
  return st.shed.shed_at_submit + st.shed.shed_in_queue;
}

}  // namespace

Result run_serve(const Args& args) {
  const Scale s = scale_for(args.tiny);
  // No pool parallelism: the shard worker computes each batch alone.
  nitho::set_parallel_workers(1);
  Result r;
  std::unique_ptr<State> st;
  const std::vector<double> setups =
      time_setups(args.trace ? 1 : s.setups, [&] {
        st.reset();
        st = set_up(s, args.seed);
      });
  const double threshold = st->direct->resist_threshold();

  // Direct-call references for every (mask, out_px, kind) of the pool.
  std::vector<Grid<double>> ref;
  for (const Grid<double>& m : st->pool) {
    for (const int px : kOutPx) {
      ref.push_back(st->direct->aerial_from_mask(m, px));
      ref.push_back(nitho::binarize(ref.back(), threshold));
    }
  }
  // Fidelity of the printed images to the drawn masks, over the pool and
  // more masks of the same families (the kernels are an untrained export,
  // so this tracks the images served, not the physics).
  double psnr_sum = 0.0, epe_sum = 0.0;
  int scored = 0;
  nitho::Rng extra_rng(args.seed * 0x9E3779B97F4A7C15ull + 0x5f);
  for (int i = 0; i < s.scored; ++i) {
    const Grid<double> extra =
        i < s.pool ? Grid<double>()
                   : nitho::rasterize(nitho::make_layout(kKinds[i % 3],
                                                         s.tile_nm, extra_rng),
                                      s.pixel_nm);
    const Grid<double>& m =
        i < s.pool ? st->pool[static_cast<std::size_t>(i)] : extra;
    for (const int px : kOutPx) {
      const Grid<double> resist =
          nitho::binarize(st->direct->aerial_from_mask(m, px), threshold);
      const Grid<double> drawn =
          nitho::binarize(nitho::downsample_area(m, m.rows() / px), 0.5);
      psnr_sum += nitho::psnr(drawn, resist);
      epe_sum += nitho::opc::mean_edge_placement_error(resist, drawn);
      ++scored;
    }
  }
  const double n_ref = scored;
  std::int64_t next = 0;

  if (!args.trace) {
    const Block b = closed_loop(*st->server, *st, s, ref, next, args.seconds,
                                s.min_ops);
    r.attempted = b.completed;
    r.failed = b.failed + static_cast<std::int64_t>(shed_total(*st->server));
    TimedPhase tp;
    tp.latency_ms = b.latency_ms;
    tp.completions = b.completions;
    tp.wall_s = b.wall_s;
    add_end_to_end(r, tp, setups, psnr_sum / n_ref, epe_sum / n_ref);
    r.notes.push_back(
        "op = one request (submit to result in hand), closed window of " +
        std::to_string(s.window) + "; mask pool repeats every " +
        std::to_string(s.pool) + " requests; no result cache");
    return r;
  }

  // Traced run: alternate blocks on the untraced server and on a twin with
  // every request traced (ServeOptions::trace, sample 1/1).
  const std::unique_ptr<LithoServer> traced = make_server(*st->direct, true);
  for (int px = 0; px < 2; ++px) (void)traced->submit(st->pool[0], kOutPx[px]).get();
  nitho::obs::Tracer& tracer = traced->tracer();
  const int repeats = args.tiny ? 2 : 5;
  for (int rep = 0; rep < repeats; ++rep) {
    const Block off =
        closed_loop(*st->server, *st, s, ref, next, 0.0, s.block);
    const auto before = traced->stats();
    const std::int64_t t_begin = tracer.now_us();
    const Block on = closed_loop(*traced, *st, s, ref, next, 0.0, s.block);
    const std::int64_t t_end = tracer.now_us();
    const auto after = traced->stats();
    r.attempted += off.completed + on.completed;
    r.failed += off.failed + on.failed;

    // Spans of this block: per request (queue_wait, batch_assembly, the
    // request envelope) and per batch (compute, resolve; keyed by the
    // batch's first request id, and sharing the envelope's end time).
    std::map<std::uint64_t, double> qwait, assembly, compute;
    std::map<std::uint64_t, std::pair<double, std::int64_t>> resolve;
    std::vector<std::pair<std::uint64_t, std::int64_t>> requests;
    for (const auto& ev : tracer.events()) {
      if (ev.start_us < t_begin || ev.start_us + ev.dur_us > t_end) continue;
      const std::string name = ev.name;
      const double ms = ev.dur_us / 1e3;
      if (name == "queue_wait") qwait[ev.id] = ms;
      if (name == "batch_assembly") assembly[ev.id] = ms;
      if (name == "compute") compute[ev.id] = ms;
      if (name == "resolve") resolve[ev.id] = {ms, ev.start_us + ev.dur_us};
      if (name == "request") requests.emplace_back(ev.id, ev.start_us + ev.dur_us);
    }
    std::map<std::int64_t, std::uint64_t> batch_by_end;
    std::vector<double> batch_compute, batch_resolve;
    for (const auto& [id, rs] : resolve) {
      batch_by_end[rs.second] = id;
      batch_resolve.push_back(rs.first);
      if (compute.count(id)) batch_compute.push_back(compute[id]);
    }
    std::vector<double> req_qw, req_asm, req_compute, req_resolve;
    for (const auto& [id, end] : requests) {
      const auto batch = batch_by_end.find(end);
      if (batch == batch_by_end.end() || !qwait.count(id) ||
          !assembly.count(id) || !compute.count(batch->second)) {
        continue;
      }
      req_qw.push_back(qwait[id]);
      req_asm.push_back(assembly[id]);
      req_compute.push_back(compute[batch->second]);
      req_resolve.push_back(resolve[batch->second].first);
    }

    // The same requests through the synchronous API at the observed
    // batch size: the compute a request costs without the server.
    const double batches = static_cast<double>(after.batches - before.batches);
    const double occupancy =
        batches > 0 ? static_cast<double>(after.completed - before.completed) /
                          batches
                    : 1.0;
    const int direct_batch = std::max(1, static_cast<int>(std::lround(occupancy)));
    std::vector<const Grid<double>*> bucket[2];
    std::vector<RequestKind> kinds[2];
    double direct_ms = 0.0;
    const auto flush = [&](int px) {
      if (bucket[px].empty()) return;
      const auto t = Clock::now();
      const auto out = st->direct->aerial_batch(bucket[px], kOutPx[px]);
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (kinds[px][i] == RequestKind::kResist) {
          (void)nitho::binarize(out[i], threshold);
        }
      }
      direct_ms += ms_since(t);
      bucket[px].clear();
      kinds[px].clear();
    };
    const int direct_n = std::min<int>(s.block, 256);
    for (int i = 0; i < direct_n; ++i) {
      const Request& q = st->seq[static_cast<std::size_t>(i)];
      bucket[q.px].push_back(&st->pool[static_cast<std::size_t>(q.mask)]);
      kinds[q.px].push_back(q.kind);
      if (static_cast<int>(bucket[q.px].size()) == direct_batch) flush(q.px);
    }
    flush(0);
    flush(1);
    const double direct_per_req = direct_ms / direct_n;
    const double served_per_req = 1e3 * off.wall_s / static_cast<double>(off.completed);

    const double lat = mean(on.latency_ms);
    const double submit_ms = mean(on.submit_us) / 1e3;
    const double parts = submit_ms + mean(req_qw) + mean(req_asm) +
                         mean(req_compute) + mean(req_resolve);
    ledger_add(r, "serve.submit_us", "us", mean(on.submit_us),
               100.0 * submit_ms / lat, "client-side submit() call");
    ledger_add(r, "serve.queue_wait_ms", "ms", mean(req_qw),
               100.0 * mean(req_qw) / lat, "span, per request");
    ledger_add(r, "serve.batch_assembly_ms", "ms", mean(req_asm),
               100.0 * mean(req_asm) / lat, "span, per request");
    ledger_add(r, "serve.compute_ms", "ms", mean(batch_compute),
               100.0 * mean(req_compute) / lat,
               "span, per batch; share = the request's batch");
    ledger_add(r, "serve.resolve_ms", "ms", mean(batch_resolve),
               100.0 * mean(req_resolve) / lat,
               "span, per batch; share = the request's batch");
    ledger_add(r, "serve.batch_occupancy", "req/batch", occupancy, kNaN,
               "ShardStats, traced block");
    ledger_add(r, "serve.batches", "count", batches, kNaN,
               "engine sweeps per block of " + std::to_string(s.block) +
                   " requests");
    ledger_add(r, "serve.direct_ms_per_req", "ms", direct_per_req, kNaN,
               "FastLitho::aerial_batch at the observed occupancy");
    ledger_add(r, "serve.overhead_pct", "%",
               100.0 * (served_per_req - direct_per_req) / served_per_req, kNaN,
               "served time per request beyond the direct call");
    ledger_add(r, "unattributed_pct", "%", 100.0 * (lat - parts) / lat, kNaN,
               "latency - (submit + spans)");
    const double tput_off = static_cast<double>(off.completed) / off.wall_s;
    const double tput_on = static_cast<double>(on.completed) / on.wall_s;
    ledger_add(r, "obs.trace_overhead_pct", "%",
               100.0 * (tput_off - tput_on) / tput_off, kNaN,
               "throughput, traced vs untraced server");
  }
  r.failed += static_cast<std::int64_t>(shed_total(*st->server) +
                                        shed_total(*traced));
  return r;
}

}  // namespace perfbench
