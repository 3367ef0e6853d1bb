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

std::size_t percentile_index(std::size_t n, int percent) {
  // One rank rule for the whole system: the exact small-window path here
  // and obs::HistogramSnapshot::quantile share this definition, so the
  // switchover between them (Shard::kExactWindow) changes resolution, not
  // rank semantics.
  return obs::nearest_rank_index(n, percent);
}

std::string latency_str(double us, std::uint64_t samples) {
  if (samples == 0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f us", us);
  return buf;
}

/// One pinned worker: queue in front, batcher inside, private FastLitho.
struct LithoServer::Shard {
  explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}

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

  /// Counters + latency accounting.  submitted is atomic — it sits on
  /// the client-facing submit path, which must not contend on stats_mu
  /// with the worker's per-batch accounting.
  ///
  /// Latencies live in two places (DESIGN.md §12.2): the first
  /// kExactWindow samples verbatim in exact_latencies (exact nearest-rank
  /// percentiles while the sample is tiny — the regime where one bucket's
  /// resolution would be visible), and every sample in the lifetime
  /// obs::LogHistogram behind `latency` (bounded-error percentiles at any
  /// scale, read without copying or sorting anything).  lat_count is the
  /// authoritative sample count; both it and exact_latencies are guarded
  /// by stats_mu, the histogram is lock-free.
  static constexpr std::size_t kExactWindow = 64;
  std::atomic<std::uint64_t> submitted{0};
  mutable Mutex stats_mu;
  std::uint64_t completed NITHO_GUARDED_BY(stats_mu) = 0;
  /// Resolved with a value (goodput).
  std::uint64_t completed_ok NITHO_GUARDED_BY(stats_mu) = 0;
  std::uint64_t batches NITHO_GUARDED_BY(stats_mu) = 0;
  std::uint64_t lat_count NITHO_GUARDED_BY(stats_mu) = 0;
  std::vector<double> exact_latencies NITHO_GUARDED_BY(stats_mu);

  /// Admission-control accounting.  shed_at_submit sits on client threads,
  /// shed_in_queue on the worker; both are read by stats readers.
  std::atomic<std::uint64_t> shed_at_submit{0};
  std::atomic<std::uint64_t> shed_in_queue{0};
  /// EWMA of per-request service time (µs), written by the worker after
  /// each batch, read by the submit path's wait estimate.  0 until the
  /// first batch completes (the estimate then admits everything and the
  /// dequeue-time check backstops it).
  std::atomic<double> est_service_us{0.0};
  /// The worker's current flush policy + tuning decisions, published for
  /// stats readers.
  std::atomic<int> cur_max_batch{0};
  std::atomic<std::int64_t> cur_max_delay_us{0};
  std::atomic<std::uint64_t> tune_updates{0};
  Clock::time_point started_at{};

  /// Registry mirrors, bound once by the server constructor (the registry
  /// name table is never touched per event).  The shard's own accounting
  /// above stays authoritative for ShardStats and its ordering invariants;
  /// these are relaxed, eventually-consistent copies for export.  The
  /// histogram is the exception: it is the percentile source once
  /// lat_count exceeds kExactWindow.
  std::uint32_t track = 0;  ///< tracer ring index == shard index
  obs::Counter* m_submitted = nullptr;
  obs::Counter* m_completed = nullptr;
  obs::Counter* m_completed_ok = nullptr;
  obs::Counter* m_batches = nullptr;
  obs::Counter* m_shed_at_submit = nullptr;
  obs::Counter* m_shed_in_queue = nullptr;
  obs::Gauge* m_est_service_us = nullptr;
  obs::LogHistogram* latency = nullptr;

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
  const auto kernels = litho.kernels_shared();
  const double threshold = litho.resist_threshold();
  const std::shared_ptr<const SloPolicy> slo =
      options_.slo ? std::make_shared<const SloPolicy>(*options_.slo)
                   : nullptr;
  for (int s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>(options_.queue_capacity);
    const std::string prefix = "serve.shard" + std::to_string(s) + ".";
    shard->track = static_cast<std::uint32_t>(s);
    shard->m_submitted = &metrics_->counter(prefix + "submitted");
    shard->m_completed = &metrics_->counter(prefix + "completed");
    shard->m_completed_ok = &metrics_->counter(prefix + "completed_ok");
    shard->m_batches = &metrics_->counter(prefix + "batches");
    shard->m_shed_at_submit = &metrics_->counter(prefix + "shed_at_submit");
    shard->m_shed_in_queue = &metrics_->counter(prefix + "shed_in_queue");
    shard->m_est_service_us = &metrics_->gauge(prefix + "est_service_us");
    shard->latency = &metrics_->histogram(prefix + "latency_us");
    // Shard 0 adopts the caller's instance (keeping any engines it has
    // already warmed); the rest share its kernels with fresh caches.  No
    // worker exists yet, but the guarded writes still take their (trivially
    // uncontended) locks — see common/mutex.hpp's protocol notes.
    {
      LockGuard lk(shard->snap_mu);
      shard->snapshot =
          s == 0 ? std::make_shared<const FastLitho>(std::move(litho))
                 : std::make_shared<const FastLitho>(
                       FastLitho(kernels, threshold));
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
  const double est_us = shard.est_service_us.load(std::memory_order_relaxed) *
                        static_cast<double>(shard.queue.depth());
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
  shard.shed_at_submit.fetch_add(1, std::memory_order_relaxed);
  shard.m_shed_at_submit->inc();
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
  // Count before push so a stats reader can never observe a completed
  // request that is not yet in submitted; roll back if the queue refuses.
  shard.submitted.fetch_add(1, std::memory_order_relaxed);
  if (!shard.queue.push(req)) {
    shard.submitted.fetch_sub(1, std::memory_order_relaxed);
    check_fail("submit on a stopped server", std::source_location::current());
  }
  // Registry mirror after the push succeeds, so it never needs rolling
  // back (eventually consistent with `submitted`, never ahead of it).
  shard.m_submitted->inc();
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
  shard.submitted.fetch_add(1, std::memory_order_relaxed);
  switch (shard.queue.try_push(req)) {
    case RequestQueue::PushResult::kOk:
      shard.m_submitted->inc();
      return fut;
    case RequestQueue::PushResult::kFull:
      shard.submitted.fetch_sub(1, std::memory_order_relaxed);
      mask = std::move(req.mask);  // hand the mask back on rejection
      return std::nullopt;
    case RequestQueue::PushResult::kClosed:
      break;
  }
  shard.submitted.fetch_sub(1, std::memory_order_relaxed);
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
  const auto kernels = fresh.kernels_shared();
  const double threshold = fresh.resist_threshold();
  // One generation per publish, serialized across concurrent swappers.
  const std::uint64_t gen =
      1 + generation_.fetch_add(1, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    auto snap = std::make_shared<const FastLitho>(FastLitho(kernels, threshold));
    LockGuard lk(shard->snap_mu);
    shard->snapshot = std::move(snap);
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
  // batches: completed (mutex) before shed_in_queue (atomic) before the
  // futures fail, so a client that has seen DeadlineExceeded also sees it
  // counted, and readers never see shed_in_queue > completed (their
  // occupancy subtraction must not underflow).
  const auto account_queue_sheds = [&] {
    std::vector<ServeRequest> shed = batcher.take_shed();
    if (shed.empty()) return;
    {
      LockGuard lk(shard.stats_mu);
      shard.completed += shed.size();
    }
    shard.shed_in_queue.fetch_add(shed.size(), std::memory_order_release);
    shard.m_completed->inc(shed.size());
    shard.m_shed_in_queue->inc(shed.size());
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
  // must also see it counted in completed.  Latencies are computed outside
  // the lock; only the ring-buffer append holds stats_mu.
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
    const double prev =
        shard.est_service_us.load(std::memory_order_relaxed);
    const double ewma =
        prev == 0.0 ? per_req_us : 0.8 * prev + 0.2 * per_req_us;
    shard.est_service_us.store(ewma, std::memory_order_relaxed);
    shard.m_est_service_us->set(ewma);
  }
  if (window != nullptr) window->record_batch(batch_latencies_us);
  // The histogram is recorded outside stats_mu (it is lock-free) and
  // *before* lat_count moves, so a reader that sees lat_count past the
  // exact window always finds at least that many samples in the histogram.
  for (const double us : batch_latencies_us) shard.latency->record(us);
  {
    LockGuard lk(shard.stats_mu);
    shard.completed += batch.requests.size();
    if (!err) shard.completed_ok += batch.requests.size();
    ++shard.batches;
    shard.lat_count += batch_latencies_us.size();
    for (const double us : batch_latencies_us) {
      if (shard.exact_latencies.size() >= Shard::kExactWindow) break;
      shard.exact_latencies.push_back(us);
    }
  }
  shard.m_completed->inc(batch.requests.size());
  if (!err) shard.m_completed_ok->inc(batch.requests.size());
  shard.m_batches->inc();
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

namespace {

/// Exact nearest-rank percentiles for the small-window regime.  `latencies`
/// holds every sample the shard(s) have ever completed (the exact window
/// has not been exceeded), so sorting it is cheap by construction.
void fill_percentiles_exact(std::vector<double> latencies, ShardStats& st) {
  if (latencies.empty()) return;  // keep the NaN sentinels: no data != 0 µs
  std::sort(latencies.begin(), latencies.end());
  const std::size_t n = latencies.size();
  st.p50_latency_us = latencies[percentile_index(n, 50)];
  st.p99_latency_us = latencies[percentile_index(n, 99)];
}

/// Histogram-derived percentiles for everything past the exact window —
/// O(buckets), no lock against the worker, bounded relative error
/// (obs::LogHistogram).
void fill_percentiles_hist(const obs::HistogramSnapshot& snap,
                           ShardStats& st) {
  if (snap.count == 0) return;
  st.p50_latency_us = snap.quantile(50);
  st.p99_latency_us = snap.quantile(99);
}

double uptime_seconds(Clock::time_point started_at) {
  return std::chrono::duration<double>(Clock::now() - started_at).count();
}

}  // namespace

ShardStats LithoServer::shard_stats(int shard) const {
  check(shard >= 0 && shard < shards(), "shard_stats: shard out of range");
  const Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  ShardStats st;
  std::vector<double> exact;
  std::uint64_t lat_count = 0;
  std::uint64_t completed_ok = 0;
  // Read shed_in_queue before completed: the worker bumps completed first,
  // so this order keeps shed_in_queue <= completed for readers (the
  // occupancy subtraction below must not underflow).
  st.shed.shed_in_queue = sh.shed_in_queue.load(std::memory_order_acquire);
  st.shed.shed_at_submit = sh.shed_at_submit.load(std::memory_order_acquire);
  {
    LockGuard lk(sh.stats_mu);
    st.completed = sh.completed;
    completed_ok = sh.completed_ok;
    st.batches = sh.batches;
    lat_count = sh.lat_count;
    if (lat_count <= Shard::kExactWindow) exact = sh.exact_latencies;
  }
  // Read submitted after completed: every completion happens-after its own
  // submission count, so this order keeps completed <= submitted for
  // readers.
  st.submitted = sh.submitted.load(std::memory_order_acquire);
  st.queue_depth = sh.queue.depth();
  st.shed.accepted = st.submitted;
  // Occupancy counts only batch-served requests: queue sheds resolve
  // without a batch.
  const std::uint64_t batch_served = st.completed - st.shed.shed_in_queue;
  st.mean_batch_occupancy =
      st.batches == 0 ? 0.0
                      : static_cast<double>(batch_served) /
                            static_cast<double>(st.batches);
  const double up = uptime_seconds(sh.started_at);
  st.shed.goodput_rps = up > 0.0 ? static_cast<double>(completed_ok) / up : 0.0;
  st.max_batch = sh.cur_max_batch.load(std::memory_order_relaxed);
  st.max_delay_us = static_cast<double>(
      sh.cur_max_delay_us.load(std::memory_order_relaxed));
  st.autotune_updates = sh.tune_updates.load(std::memory_order_relaxed);
  st.est_service_us = sh.est_service_us.load(std::memory_order_relaxed);
  st.kernel_generation = sh.current_generation();
  st.latency_samples = lat_count;
  // Exact nearest-rank while the shard's whole history fits the exact
  // window (this is where the tiny-window pins live: n == 1 must report
  // that sample, n == 2 must report the max as p99); histogram beyond it.
  // The worker records the histogram before bumping lat_count under the
  // same mutex we just held, so the snapshot cannot be behind lat_count.
  if (lat_count <= Shard::kExactWindow) {
    fill_percentiles_exact(std::move(exact), st);
  } else {
    fill_percentiles_hist(sh.latency->snapshot(), st);
  }
  return st;
}

ShardStats LithoServer::stats() const {
  ShardStats total;
  std::vector<double> exact;
  std::uint64_t lat_count = 0;
  bool all_exact = true;  // every shard's history fits its exact window
  std::uint64_t completed_ok = 0;
  double earliest_start = 0.0;
  for (int s = 0; s < shards(); ++s) {
    const Shard& sh = *shards_[static_cast<std::size_t>(s)];
    // Shed before completed, as in shard_stats: keeps the per-shard
    // shed_in_queue <= completed ordering for the occupancy subtraction.
    total.shed.shed_in_queue +=
        sh.shed_in_queue.load(std::memory_order_acquire);
    total.shed.shed_at_submit +=
        sh.shed_at_submit.load(std::memory_order_acquire);
    {
      LockGuard lk(sh.stats_mu);
      total.completed += sh.completed;
      completed_ok += sh.completed_ok;
      total.batches += sh.batches;
      lat_count += sh.lat_count;
      if (sh.lat_count <= Shard::kExactWindow) {
        exact.insert(exact.end(), sh.exact_latencies.begin(),
                     sh.exact_latencies.end());
      } else {
        all_exact = false;
      }
    }
    // After completed, as in shard_stats: keeps completed <= submitted.
    total.submitted += sh.submitted.load(std::memory_order_acquire);
    earliest_start = std::max(earliest_start, uptime_seconds(sh.started_at));
    // Policy/estimate fields have no single aggregate value; report the
    // widest currently in force so dashboards see how far tuning has
    // reached.
    total.est_service_us =
        std::max(total.est_service_us,
                 sh.est_service_us.load(std::memory_order_relaxed));
    total.max_batch = std::max(
        total.max_batch, sh.cur_max_batch.load(std::memory_order_relaxed));
    total.max_delay_us =
        std::max(total.max_delay_us,
                 static_cast<double>(
                     sh.cur_max_delay_us.load(std::memory_order_relaxed)));
    total.autotune_updates +=
        sh.tune_updates.load(std::memory_order_relaxed);
    // Swaps publish shard 0 first, so the max is the newest generation any
    // shard could hand to a submit right now.
    total.kernel_generation =
        std::max(total.kernel_generation, sh.current_generation());
  }
  for (int s = 0; s < shards(); ++s) {
    total.queue_depth += shards_[static_cast<std::size_t>(s)]->queue.depth();
  }
  const std::uint64_t batch_served =
      total.completed - total.shed.shed_in_queue;
  total.mean_batch_occupancy =
      total.batches == 0 ? 0.0
                         : static_cast<double>(batch_served) /
                               static_cast<double>(total.batches);
  total.shed.accepted = total.submitted;
  total.shed.goodput_rps =
      earliest_start > 0.0 ? static_cast<double>(completed_ok) / earliest_start
                           : 0.0;
  total.latency_samples = lat_count;
  // Exact concat-and-sort only while *every* shard is still inside its
  // exact window (the concatenation is then the complete sample); one
  // histogram past the window and the whole aggregate reads as a
  // bucket-wise histogram merge instead — mixing an exact vector into a
  // bucketed merge would bias ranks.
  if (all_exact) {
    fill_percentiles_exact(std::move(exact), total);
  } else {
    obs::HistogramSnapshot merged;
    for (int s = 0; s < shards(); ++s) {
      merged += shards_[static_cast<std::size_t>(s)]->latency->snapshot();
    }
    fill_percentiles_hist(merged, total);
  }
  return total;
}

}  // namespace nitho::serve
