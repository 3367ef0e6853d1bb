#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "metrics/metrics.hpp"

namespace nitho::serve {

using Clock = std::chrono::steady_clock;

std::string latency_str(double us, std::uint64_t samples) {
  if (samples == 0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f us", us);
  return buf;
}

/// One pinned worker: queue in front, batcher inside.
struct LithoServer::Shard {
  Shard(std::size_t queue_capacity, obs::MetricsRegistry& metrics,
        const std::string& prefix, std::uint32_t index)
      : submitted(metrics.counter(prefix + "submitted")),
        completed(metrics.counter(prefix + "completed")),
        completed_ok(metrics.counter(prefix + "completed_ok")),
        batches(metrics.counter(prefix + "batches")),
        shed_at_submit(metrics.counter(prefix + "shed_at_submit")),
        shed_in_queue(metrics.counter(prefix + "shed_in_queue")),
        est_service_us(metrics.gauge(prefix + "est_service_us")),
        latency(metrics.histogram(prefix + "latency_us")),
        track(index),
        queue(queue_capacity, &submitted) {}

  /// The shard's books (DESIGN.md §12.1): registry metrics bound once
  /// here, so the name table is never touched per event, and the only
  /// record of these facts — ShardStats reads them back.  submitted moves
  /// in RequestQueue::push_locked (admission, under the queue mutex);
  /// shed_at_submit on client threads; the rest on the worker.
  obs::Counter& submitted;
  obs::Counter& completed;     ///< resolved: value, engine error or queue shed
  obs::Counter& completed_ok;  ///< resolved with a value (goodput)
  obs::Counter& batches;
  obs::Counter& shed_at_submit;
  obs::Counter& shed_in_queue;
  /// EWMA of per-request service time (µs), written by the worker after
  /// each batch, read by the submit path's wait estimate.  0 until the
  /// first batch completes (the estimate then admits everything and the
  /// dequeue-time check backstops it).
  obs::Gauge& est_service_us;
  /// Submit-to-resolve latency of every batch-served request.
  obs::LogHistogram& latency;
  const std::uint32_t track;  ///< tracer ring index == shard index

  RequestQueue queue;
  std::thread worker;

  /// Current kernel snapshot + its generation number; replaced wholesale
  /// (as a pair, under one lock) by swap_kernels.
  mutable Mutex snap_mu;
  std::shared_ptr<const FastLitho> snapshot NITHO_GUARDED_BY(snap_mu);
  std::uint64_t generation NITHO_GUARDED_BY(snap_mu) = 0;

  /// Current SLO policy (null = admission control off); replaced wholesale
  /// by swap_slo, exactly like the kernel snapshot.  The submit path reads
  /// it per request; the worker re-reads it per dequeue and rebuilds its
  /// autotuner when the pointer changes.
  mutable Mutex slo_mu;
  std::shared_ptr<const SloPolicy> slo NITHO_GUARDED_BY(slo_mu);

  /// The worker's current flush policy + tuning decisions, published for
  /// stats readers (policy state, not counts: no registry metric copies
  /// them).
  std::atomic<int> cur_max_batch{0};
  std::atomic<std::int64_t> cur_max_delay_us{0};
  std::atomic<std::uint64_t> tune_updates{0};
  Clock::time_point started_at{};

  std::shared_ptr<const FastLitho> current_snapshot() const {
    LockGuard lk(snap_mu);
    return snapshot;
  }
  std::uint64_t current_generation() const {
    LockGuard lk(snap_mu);
    return generation;
  }
  std::shared_ptr<const SloPolicy> current_slo() const {
    LockGuard lk(slo_mu);
    return slo;
  }
};

LithoServer::LithoServer(FastLitho litho, ServeOptions options)
    : options_(options) {
  check(options_.shards >= 1, "LithoServer needs at least one shard");
  metrics_ = options_.metrics ? options_.metrics
                              : std::make_shared<obs::MetricsRegistry>();
  // Which SIMD arm the kernels dispatch to, so metric snapshots (and the
  // bench CSVs derived from them) record which arm produced each number.
  metrics_->gauge("simd_arm").set(static_cast<double>(simd::active_arm()));
  // Tracks 0..shards-1 belong to the shard workers, track `shards` to the
  // OPC worker — one writer per ring.
  tracer_ = std::make_unique<obs::Tracer>(
      options_.trace, static_cast<std::uint32_t>(options_.shards) + 1);
  // One snapshot for every shard: a FastLitho holds no per-caller state.
  const auto snap = std::make_shared<const FastLitho>(std::move(litho));
  const std::shared_ptr<const SloPolicy> slo =
      options_.slo ? std::make_shared<const SloPolicy>(*options_.slo)
                   : nullptr;
  // The shards' metrics are their only books, so two servers publishing
  // into one registry would count into each other's ShardStats.
  check(metrics_->snapshot().find("serve.shard0.submitted") == nullptr,
        "LithoServer: the metrics registry already holds a server's books");
  for (int s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>(
        options_.queue_capacity, *metrics_,
        "serve.shard" + std::to_string(s) + ".", static_cast<std::uint32_t>(s));
    // No worker exists yet, but the guarded writes still take their
    // (trivially uncontended) locks — see common/mutex.hpp's protocol notes.
    {
      LockGuard lk(shard->snap_mu);
      shard->snapshot = snap;
    }
    {
      LockGuard lk(shard->slo_mu);
      shard->slo = slo;
    }
    shard->cur_max_batch.store(options_.batch.max_batch,
                               std::memory_order_relaxed);
    shard->cur_max_delay_us.store(options_.batch.max_delay.count(),
                                  std::memory_order_relaxed);
    shard->started_at = Clock::now();
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    sh->worker = std::thread([this, sh] { shard_loop(*sh); });
  }
  // OPC jobs yield whenever any shard has latency traffic queued.  The
  // probe reads queue depths only — shards_ is immutable after this
  // constructor and outlives opc_ (stop() tears the service down first).
  opc_ = std::make_unique<OpcService>(
      [this] {
        for (const auto& shard : shards_) {
          if (shard->queue.depth() > 0) return true;
        }
        return false;
      },
      metrics_.get(), tracer_.get(),
      static_cast<std::uint32_t>(options_.shards));
}

LithoServer::~LithoServer() { stop(); }

int LithoServer::shard_of(int out_px) const {
  if (options_.route == RouteMode::kRoundRobin) return -1;  // any shard
  // Fibonacci hash of out_px: neighbouring resolutions land on different
  // shards even when the shard count is a power of two.
  const std::uint64_t h =
      static_cast<std::uint64_t>(out_px) * 0x9E3779B97F4A7C15ull;
  return static_cast<int>((h >> 32) % static_cast<std::uint64_t>(shards()));
}

LithoServer::Shard& LithoServer::route(int out_px) {
  int s = shard_of(out_px);
  if (s < 0) {
    s = static_cast<int>(round_robin_.fetch_add(1, std::memory_order_relaxed) %
                         static_cast<std::uint64_t>(shards()));
  }
  return *shards_[static_cast<std::size_t>(s)];
}

ServeRequest LithoServer::make_request(
    Shard& shard, Grid<double>& mask, int out_px, RequestKind kind,
    std::chrono::steady_clock::time_point deadline) const {
  // Validate before touching the caller's mask, so a rejected submission
  // (empty or non-finite mask, out_px under the current snapshot's kernel
  // support — reachable when a hot-swap races a submit) leaves it intact.
  // A NaN or Inf pixel would spread through the FFTs into a NaN aerial.
  check(!mask.empty(), "submit: empty mask");
  check(std::all_of(mask.begin(), mask.end(),
                    [](double v) { return std::isfinite(v); }),
        "submit: mask has a non-finite value");
  auto snapshot = shard.current_snapshot();  // never null, even after stop()
  check(out_px >= snapshot->kernel_dim(),
        "submit: out_px smaller than the kernel support");
  ServeRequest req;
  req.kind = kind;
  req.mask = std::move(mask);
  req.out_px = out_px;
  req.litho = std::move(snapshot);
  req.enqueued_at = Clock::now();
  req.deadline = deadline;
  if (req.deadline == kNoDeadline) {
    // No explicit deadline: the shard's SLO policy supplies the default
    // (and without a policy the request keeps kNoDeadline — PR 3 behavior).
    if (const auto slo = shard.current_slo()) {
      req.deadline = req.enqueued_at + slo->max_queue_wait;
    }
  }
  return req;
}

bool LithoServer::shed_at_submit(Shard& shard, ServeRequest& req) {
  if (req.deadline == kNoDeadline) return false;
  // Estimated wait: everything already queued, served at the worker's
  // recent per-request pace.  Deliberately rough — it only has to reject
  // requests that are clearly doomed; the dequeue-time check in
  // MicroBatcher::add catches the rest.
  const double est_us =
      shard.est_service_us.value() * static_cast<double>(shard.queue.depth());
  const auto eta =
      req.enqueued_at + std::chrono::microseconds(std::llround(est_us));
  if (eta <= req.deadline) return false;
  // Built once: overload means this fires per rejected request, and an
  // exception_ptr construction costs a throw/catch on this toolchain.
  static const std::exception_ptr kShedAtSubmit =
      std::make_exception_ptr(DeadlineExceeded(
          "litho request shed at submit: estimated queue wait exceeds "
          "deadline"));
  req.result.set_exception(kShedAtSubmit);
  shard.shed_at_submit.inc();
  return true;
}

std::future<Grid<double>> LithoServer::submit(
    Grid<double> mask, int out_px, RequestKind kind,
    std::chrono::steady_clock::time_point deadline) {
  Shard& shard = route(out_px);
  ServeRequest req = make_request(shard, mask, out_px, kind, deadline);
  std::future<Grid<double>> fut = req.result.get_future();
  // A shed is an answer (DeadlineExceeded), not backpressure: the future
  // is already resolved and the request never occupies a queue slot.
  if (shed_at_submit(shard, req)) return fut;
  // Sampling decision at submit (one relaxed RMW when tracing is on, a
  // branch when off); spans are emitted by the shard worker at resolve.
  if (tracer_->sample()) {
    req.traced = true;
    req.trace_id = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  // The queue counts the admission (shard.submitted) as it files it.
  check(shard.queue.push(req), "submit on a stopped server");
  return fut;
}

std::optional<std::future<Grid<double>>> LithoServer::try_submit(
    Grid<double>& mask, int out_px, RequestKind kind,
    std::chrono::steady_clock::time_point deadline) {
  Shard& shard = route(out_px);
  ServeRequest req = make_request(shard, mask, out_px, kind, deadline);
  std::future<Grid<double>> fut = req.result.get_future();
  if (shed_at_submit(shard, req)) return fut;
  if (tracer_->sample()) {
    req.traced = true;
    req.trace_id = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  switch (shard.queue.try_push(req)) {
    case RequestQueue::PushResult::kOk:
      return fut;
    case RequestQueue::PushResult::kFull:
      mask = std::move(req.mask);  // hand the mask back on rejection
      return std::nullopt;
    case RequestQueue::PushResult::kClosed:
      break;
  }
  mask = std::move(req.mask);
  // A full queue is the caller's load-shedding signal; a stopped server
  // is not retryable and must not masquerade as backpressure.
  check_fail("submit on a stopped server", std::source_location::current());
}

OpcJobHandle LithoServer::submit_opc(std::vector<Grid<double>> intended,
                                     OpcJobOptions opts) {
  const std::shared_ptr<const FastLitho> snap = snapshot(0);
  // The job evaluates EPE against the same print threshold the server's
  // resist requests use.
  opts.config.resist_threshold = snap->resist_threshold();
  return opc_->submit(snap->kernels_shared(), std::move(intended), opts);
}

OpcJobHandle LithoServer::resume_opc(opc::OpcCheckpoint checkpoint,
                                     OpcJobOptions opts) {
  return opc_->resume(snapshot(0)->kernels_shared(), std::move(checkpoint),
                      opts);
}

std::uint64_t LithoServer::swap_kernels(FastLitho fresh) {
  const auto snap = std::make_shared<const FastLitho>(std::move(fresh));
  // One generation per publish, serialized across concurrent swappers.
  const std::uint64_t gen =
      1 + generation_.fetch_add(1, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    LockGuard lk(shard->snap_mu);
    shard->snapshot = snap;
    shard->generation = gen;
  }
  return gen;
}

void LithoServer::swap_slo(std::optional<SloPolicy> slo) {
  const std::shared_ptr<const SloPolicy> snap =
      slo ? std::make_shared<const SloPolicy>(*slo) : nullptr;
  for (auto& shard : shards_) {
    LockGuard lk(shard->slo_mu);
    shard->slo = snap;
  }
}

std::shared_ptr<const FastLitho> LithoServer::snapshot(int shard) const {
  check(shard >= 0 && shard < shards(), "snapshot: shard out of range");
  return shards_[static_cast<std::size_t>(shard)]->current_snapshot();
}

std::uint64_t LithoServer::generation(int shard) const {
  check(shard >= 0 && shard < shards(), "generation: shard out of range");
  return shards_[static_cast<std::size_t>(shard)]->current_generation();
}

std::shared_ptr<const SloPolicy> LithoServer::slo(int shard) const {
  check(shard >= 0 && shard < shards(), "slo: shard out of range");
  return shards_[static_cast<std::size_t>(shard)]->current_slo();
}

void LithoServer::stop() {
  LockGuard lk(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  // OPC first: its worker probes shard queue depths between steps, and its
  // futures must resolve (with resumable checkpoints) before the shards
  // are torn down.
  if (opc_) opc_->stop();
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void LithoServer::shard_loop(Shard& shard) {
  MicroBatcher batcher(options_.batch);
  std::optional<SloAutotuner> tuner;
  TuneWindow window;
  std::shared_ptr<const SloPolicy> active;

  const auto publish_policy = [&] {
    shard.cur_max_batch.store(batcher.policy().max_batch,
                              std::memory_order_relaxed);
    shard.cur_max_delay_us.store(batcher.policy().max_delay.count(),
                                 std::memory_order_relaxed);
  };
  // (Re)build the tuning state for a freshly observed SLO policy.  The
  // batcher always restarts from the configured BatchPolicy so swapping a
  // policy in or out is deterministic, not a function of tuning history.
  const auto rebuild_slo = [&](std::shared_ptr<const SloPolicy> latest) {
    active = std::move(latest);
    tuner.reset();
    window.clear();
    batcher.set_policy(options_.batch);
    if (active && active->autotune) {
      tuner.emplace(active->target_p99, active->tuner, options_.batch);
      batcher.set_policy(tuner->policy());  // clamped into tuner bounds
    }
    publish_policy();
  };
  const auto maybe_tune = [&] {
    if (!tuner || !tuner->ready(window)) return;
    if (tuner->update(window)) {
      batcher.set_policy(tuner->policy());
      shard.tune_updates.fetch_add(1, std::memory_order_relaxed);
      publish_policy();
    }
  };
  // Queue sheds count as completed (a resolved future must be visible in
  // the stats), but never as goodput.  Account-then-resolve, like served
  // batches: completed before shed_in_queue before the futures fail, so a
  // client that has seen DeadlineExceeded also sees it counted, and
  // readers never see shed_in_queue > completed (their occupancy
  // subtraction must not underflow).
  const auto account_queue_sheds = [&] {
    std::vector<ServeRequest> shed = batcher.take_shed();
    if (shed.empty()) return;
    shard.completed.inc(shed.size());
    shard.shed_in_queue.inc(shed.size());
    // Built once: under overload this fires per expired request, and an
    // exception_ptr construction costs a throw/catch on this toolchain.
    static const std::exception_ptr kShedInQueue =
        std::make_exception_ptr(DeadlineExceeded(
            "litho request shed: deadline expired while queued"));
    for (ServeRequest& r : shed) r.result.set_exception(kShedInQueue);
  };

  rebuild_slo(shard.current_slo());
  for (;;) {
    if (auto latest = shard.current_slo(); latest != active) {
      rebuild_slo(std::move(latest));
    }
    ServeRequest req;
    const auto deadline = batcher.next_deadline();
    const RequestQueue::PopResult popped =
        deadline ? shard.queue.pop_until(req, *deadline)
                 : shard.queue.pop(req);
    TuneWindow* const w = tuner ? &window : nullptr;
    if (popped == RequestQueue::PopResult::kItem) {
      // Traced requests only: the extra timestamp splits queue-wait from
      // batch-assembly in the exported spans.
      if (req.traced) req.dequeued_at = Clock::now();
      if (auto full = batcher.add(std::move(req), Clock::now())) {
        execute_batch(shard, std::move(*full), w);
      }
      account_queue_sheds();
    }
    // Deadline-triggered partial batches (also sweeps buckets that expired
    // while a size-triggered flush was executing).
    while (auto expired = batcher.poll(Clock::now())) {
      execute_batch(shard, std::move(*expired), w);
    }
    maybe_tune();
    if (popped == RequestQueue::PopResult::kClosed) {
      // Queue drained and closed: flush what the batcher still holds so
      // every accepted future resolves, then retire the worker.
      for (Batch& b : batcher.drain()) {
        execute_batch(shard, std::move(b), nullptr);
      }
      return;
    }
  }
}

void LithoServer::execute_batch(Shard& shard, Batch batch,
                                TuneWindow* window) {
  const auto t0 = Clock::now();
  std::vector<const Grid<double>*> masks;
  masks.reserve(batch.requests.size());
  for (const ServeRequest& r : batch.requests) masks.push_back(&r.mask);
  std::vector<Grid<double>> aerials;
  std::exception_ptr err;
  try {
    aerials = batch.litho->aerial_batch(masks, batch.out_px);
  } catch (...) {
    // A failed sweep (e.g. a mask/out_px combination the engine rejects)
    // fails every request in the batch instead of wedging their futures.
    err = std::current_exception();
  }
  // Account first, then resolve: a client that has seen its future resolve
  // must also see it counted in completed.
  const auto now = Clock::now();
  std::vector<double> batch_latencies_us;
  batch_latencies_us.reserve(batch.requests.size());
  for (const ServeRequest& r : batch.requests) {
    batch_latencies_us.push_back(
        std::chrono::duration<double, std::micro>(now - r.enqueued_at)
            .count());
  }
  // Feed the submit-path wait estimate: per-request share of this batch's
  // wall time, EWMA-smoothed (worker-written, client-read).
  {
    const double per_req_us =
        std::chrono::duration<double, std::micro>(now - t0).count() /
        static_cast<double>(batch.requests.size());
    const double prev = shard.est_service_us.value();
    shard.est_service_us.set(prev == 0.0 ? per_req_us
                                         : 0.8 * prev + 0.2 * per_req_us);
  }
  if (window != nullptr) window->record_batch(batch_latencies_us);
  // Latencies before completed, so a reader that has loaded completed
  // finds every batch-served one of them in the histogram.
  for (const double us : batch_latencies_us) shard.latency.record(us);
  shard.completed.inc(batch.requests.size());
  if (!err) shard.completed_ok.inc(batch.requests.size());
  shard.batches.inc();
  // Span bookkeeping costs one branch per batch while tracing is off; the
  // sampled-request scan and timestamps only run when it is on.
  const bool tracing = tracer_->enabled();
  bool any_traced = false;
  if (tracing) {
    for (const ServeRequest& r : batch.requests) any_traced |= r.traced;
  }
  const auto t_resolve = any_traced ? Clock::now() : Clock::time_point{};
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    ServeRequest& r = batch.requests[i];
    if (err) {
      r.result.set_exception(err);
    } else if (r.kind == RequestKind::kResist) {
      r.result.set_value(binarize(aerials[i], batch.litho->resist_threshold()));
    } else {
      r.result.set_value(std::move(aerials[i]));
    }
  }
  if (any_traced) {
    // Emitted by the shard worker — the ring's single writer.  Batch-level
    // spans (compute, resolve) carry the first traced request's id.
    const auto t_done = Clock::now();
    const auto us = [this](Clock::time_point t) {
      return tracer_->us_since_epoch(t);
    };
    std::uint64_t batch_id = 0;
    for (const ServeRequest& r : batch.requests) {
      if (!r.traced) continue;
      if (batch_id == 0) batch_id = r.trace_id;
      // Parent before children at the same start time, so the exporter's
      // stable sort keeps the nesting viewers expect.
      tracer_->record({"request", "serve", r.trace_id, shard.track,
                       us(r.enqueued_at), us(t_done) - us(r.enqueued_at)});
      tracer_->record({"queue_wait", "serve", r.trace_id, shard.track,
                       us(r.enqueued_at),
                       us(r.dequeued_at) - us(r.enqueued_at)});
      tracer_->record({"batch_assembly", "serve", r.trace_id, shard.track,
                       us(r.dequeued_at), us(t0) - us(r.dequeued_at)});
    }
    tracer_->record({"compute", "serve", batch_id, shard.track, us(t0),
                     us(now) - us(t0)});
    tracer_->record({"resolve", "serve", batch_id, shard.track,
                     us(t_resolve), us(t_done) - us(t_resolve)});
  }
}

ShardStats LithoServer::shard_stats(int shard) const {
  check(shard >= 0 && shard < shards(), "shard_stats: shard out of range");
  const auto s = static_cast<std::size_t>(shard);
  return stats_over(s, s + 1);
}

ShardStats LithoServer::stats() const { return stats_over(0, shards_.size()); }

ShardStats LithoServer::stats_over(std::size_t first, std::size_t last) const {
  ShardStats st;
  std::uint64_t completed_ok = 0;
  double uptime_s = 0.0;
  obs::HistogramSnapshot latency;
  for (std::size_t s = first; s < last; ++s) {
    const Shard& sh = *shards_[s];
    // Load order carries the reader invariants (DESIGN.md §12.1).  The
    // worker counts completed before shed_in_queue, and every completion
    // happens-after its admission (counted under the queue mutex its pop
    // takes); counters publish with release and read with acquire.  So
    // shed_in_queue, then completed, then submitted keeps
    // shed_in_queue <= completed <= submitted for every reader.
    st.shed.shed_in_queue += sh.shed_in_queue.value();
    st.shed.shed_at_submit += sh.shed_at_submit.value();
    st.completed += sh.completed.value();
    completed_ok += sh.completed_ok.value();
    st.batches += sh.batches.value();
    st.submitted += sh.submitted.value();
    st.queue_depth += sh.queue.depth();
    latency += sh.latency.snapshot();
    uptime_s = std::max(
        uptime_s,
        std::chrono::duration<double>(Clock::now() - sh.started_at).count());
    // Policy/estimate fields have no single aggregate value; report the
    // widest currently in force so dashboards see how far tuning has
    // reached.
    st.est_service_us = std::max(st.est_service_us, sh.est_service_us.value());
    st.max_batch = std::max(st.max_batch,
                            sh.cur_max_batch.load(std::memory_order_relaxed));
    st.max_delay_us =
        std::max(st.max_delay_us,
                 static_cast<double>(
                     sh.cur_max_delay_us.load(std::memory_order_relaxed)));
    st.autotune_updates += sh.tune_updates.load(std::memory_order_relaxed);
    // Swaps publish shard 0 first, so the max is the newest generation any
    // shard could hand to a submit right now.
    st.kernel_generation =
        std::max(st.kernel_generation, sh.current_generation());
  }
  // Occupancy counts only batch-served requests: queue sheds resolve
  // without a batch.
  st.mean_batch_occupancy =
      st.batches == 0
          ? 0.0
          : static_cast<double>(st.completed - st.shed.shed_in_queue) /
                static_cast<double>(st.batches);
  st.shed.goodput_rps =
      uptime_s > 0.0 ? static_cast<double>(completed_ok) / uptime_s : 0.0;
  // Nearest-rank bucket midpoints of the (merged) lifetime histogram;
  // the NaN sentinels stay while no request has been served.
  st.latency_samples = latency.count;
  st.p50_latency_us = latency.quantile(50);
  st.p99_latency_us = latency.quantile(99);
  return st;
}

}  // namespace nitho::serve
