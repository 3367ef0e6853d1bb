#include "serve/opc_service.hpp"

#include <exception>
#include <utility>

#include "common/check.hpp"

namespace nitho::serve {

namespace {

/// Marks the job done and resolves its future exactly once.
void finish(detail::OpcJobState& state, OpcJobResult result) {
  {
    LockGuard lk(state.mu);
    state.progress.iteration = result.iterations_done;
    state.progress.done = true;
    state.progress.cancelled = !result.completed;
  }
  state.promise.set_value(std::move(result));
}

}  // namespace

OpcJobProgress OpcJobHandle::progress() const {
  check(state_ != nullptr, "OpcJobHandle::progress on an empty handle");
  LockGuard lk(state_->mu);
  return state_->progress;
}

void OpcJobHandle::cancel() {
  check(state_ != nullptr, "OpcJobHandle::cancel on an empty handle");
  state_->cancel.store(true, std::memory_order_relaxed);
}

OpcService::OpcService(BusyFn busy, obs::MetricsRegistry* registry,
                       obs::Tracer* tracer, std::uint32_t track)
    : busy_(std::move(busy)),
      registry_(registry),
      tracer_(tracer),
      track_(track) {
  if (registry_ != nullptr) vjp_timers_.emplace(*registry_, "opc");
  worker_ = std::thread([this] { worker_loop(); });
}

OpcService::~OpcService() { stop(); }

OpcJobHandle OpcService::submit(KernelSnapshot kernels,
                                std::vector<Grid<double>> intended,
                                OpcJobOptions opts) {
  check(kernels != nullptr && !kernels->empty(),
        "OpcService::submit: no kernels");
  check(!intended.empty(), "OpcService::submit: empty batch");
  check(opts.iterations >= 1, "OpcService::submit: iterations must be >= 1");
  Job job;
  job.kernels = std::move(kernels);
  job.intended = std::move(intended);
  job.opts = opts;
  return enqueue(std::move(job));
}

OpcJobHandle OpcService::resume(KernelSnapshot kernels,
                                opc::OpcCheckpoint checkpoint,
                                OpcJobOptions opts) {
  check(kernels != nullptr && !kernels->empty(),
        "OpcService::resume: no kernels");
  check(checkpoint.batch > 0, "OpcService::resume: empty checkpoint");
  Job job;
  job.kernels = std::move(kernels);
  job.checkpoint = std::move(checkpoint);
  job.opts = opts;
  return enqueue(std::move(job));
}

OpcJobHandle OpcService::enqueue(Job job) {
  job.state = std::make_shared<detail::OpcJobState>();
  job.state->future = job.state->promise.get_future().share();
  job.state->progress.total = job.opts.iterations;
  if (job.checkpoint) job.state->progress.iteration = job.checkpoint->iteration;
  OpcJobHandle handle(job.state);
  {
    LockGuard lk(mu_);
    check(!stopped_, "OpcService: submit on a stopped service");
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return handle;
}

void OpcService::stop() {
  {
    LockGuard lk(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_relaxed);
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // The worker exits without touching jobs it never started; their futures
  // still must resolve (shutdown never breaks a promise).
  std::deque<Job> leftover;
  {
    LockGuard lk(mu_);
    leftover.swap(queue_);
  }
  for (Job& job : leftover) {
    OpcJobResult result;
    if (job.checkpoint) {
      result.iterations_done = job.checkpoint->iteration;
      result.checkpoint = std::move(*job.checkpoint);
    }
    finish(*job.state, std::move(result));
  }
}

void OpcService::worker_loop() {
  for (;;) {
    Job job;
    {
      UniqueLock lk(mu_);
      // Explicit wait loop over the guarded fields (DESIGN.md §14.2).
      while (!stopped_ && queue_.empty()) cv_.wait(lk);
      if (stopped_) return;  // stop() resolves whatever is still queued
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job);
  }
}

void OpcService::throttle(const OpcJobOptions& opts) const {
  if (!busy_ || opts.max_yield.count() <= 0) return;
  // Back off in slices while latency traffic is queued; bounded so a
  // saturating aerial load degrades the job instead of stalling it.
  constexpr std::chrono::microseconds kSlice{50};
  std::chrono::microseconds waited{0};
  while (waited < opts.max_yield && busy_()) {
    std::this_thread::sleep_for(kSlice);
    waited += kSlice;
  }
}

void OpcService::run_job(Job& job) {
  detail::OpcJobState& state = *job.state;
  // Gauge references are bound once per job, not per step (the registry's
  // name table is never touched on the step loop).
  obs::Gauge* g_iter = nullptr;
  obs::Gauge* g_total = nullptr;
  obs::Gauge* g_fit = nullptr;
  obs::Gauge* g_epe = nullptr;
  obs::Counter* c_steps = nullptr;
  if (registry_ != nullptr) {
    registry_->counter("opc.jobs").inc();
    g_iter = &registry_->gauge("opc.iteration");
    g_total = &registry_->gauge("opc.total");
    g_fit = &registry_->gauge("opc.fit_loss");
    g_epe = &registry_->gauge("opc.mean_epe_px");
    c_steps = &registry_->counter("opc.steps");
    g_total->set(static_cast<double>(job.opts.iterations));
  }
  try {
    opc::OpcEngine engine(job.kernels, job.opts.config);
    engine.set_vjp_timer(vjp_timers_ ? &*vjp_timers_ : nullptr);
    if (job.checkpoint) {
      engine.restore(*job.checkpoint);
    } else {
      engine.start(job.intended);
    }
    const long target = job.opts.iterations;
    bool interrupted = false;
    while (engine.iteration() < target) {
      if (stop_.load(std::memory_order_relaxed) ||
          state.cancel.load(std::memory_order_relaxed)) {
        interrupted = true;
        break;
      }
      throttle(job.opts);
      const bool traced = tracer_ != nullptr && tracer_->sample();
      const std::int64_t span_t0 = traced ? tracer_->now_us() : 0;
      const opc::OpcStepStats stats = engine.step();
      if (traced) {
        tracer_->record({"opc_step", "opc",
                         static_cast<std::uint64_t>(engine.iteration()),
                         track_, span_t0, tracer_->now_us() - span_t0});
      }
      const bool epe_due =
          job.opts.epe_every > 0 &&
          (engine.iteration() % job.opts.epe_every == 0 ||
           engine.iteration() == target);
      const double epe = epe_due
                             ? engine.mean_epe_px()
                             : std::numeric_limits<double>::quiet_NaN();
      {
        LockGuard lk(state.mu);
        state.progress.iteration = engine.iteration();
        state.progress.fit_loss = stats.fit_loss;
        if (epe_due) state.progress.mean_epe_px = epe;
      }
      if (c_steps != nullptr) {
        c_steps->inc();
        g_iter->set(static_cast<double>(engine.iteration()));
        g_fit->set(static_cast<double>(stats.fit_loss));
        if (epe_due) g_epe->set(epe);
      }
    }
    OpcJobResult result;
    result.masks = engine.masks();
    result.checkpoint = engine.checkpoint();
    result.iterations_done = engine.iteration();
    result.completed = !interrupted;
    finish(state, std::move(result));
  } catch (...) {
    {
      LockGuard lk(state.mu);
      state.progress.done = true;
      state.progress.cancelled = true;
    }
    state.promise.set_exception(std::current_exception());
  }
}

}  // namespace nitho::serve
