#pragma once
// OpcService: mask-optimization jobs as a second request class next to the
// fast aerial queries (DESIGN.md §10).
//
// An OPC job is minutes of gradient descent, not microseconds of FFT — it
// cannot ride the shard queues, whose admission control is built around
// per-request deadlines.  Instead a single background worker runs jobs
// from its own queue on an opc::OpcEngine:
//
//   * submit() captures the server's kernel snapshot at submit time (the
//     same capture-at-submit rule aerial requests follow) and returns a
//     handle: a poll-able progress struct (iteration, fit loss, EPE) plus
//     a shared_future for the final result.
//   * Jobs yield to latency traffic: between optimizer steps the worker
//     checks the server's queues and backs off (bounded by
//     OpcJobOptions::max_yield) while latency-SLO requests are waiting,
//     so a long job never starves the aerial path of CPU at step
//     granularity.
//   * Jobs are resumable: cancel(), stop() or a server shutdown resolve
//     the future with the engine's checkpoint at the last completed
//     iteration (completed = false); resume() continues bit-identically
//     toward the same iteration target, even on another server.
//   * stop() resolves every accepted future (shutdown never breaks a
//     promise) — jobs that never started return completed = false with an
//     empty checkpoint (batch == 0).

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "math/cplx.hpp"
#include "math/grid.hpp"
#include "nitho/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opc/engine.hpp"

namespace nitho::serve {

struct OpcJobOptions {
  /// Engine configuration for fresh jobs; a resumed job keeps its
  /// checkpoint's config instead.
  opc::OpcConfig config;
  /// Absolute iteration target: a fresh job runs this many steps, a
  /// resumed job continues from its checkpoint to the same total — which
  /// is what makes stop-at-50 / resume-to-100 land exactly where an
  /// uninterrupted 100-step run does.
  long iterations = 100;
  /// Evaluate EPE into the progress struct every this many steps (and at
  /// completion); 0 disables the extra forward passes.
  int epe_every = 25;
  /// Upper bound on how long one step may be delayed while yielding to
  /// queued latency traffic.
  std::chrono::microseconds max_yield{2000};
};

struct OpcJobProgress {
  long iteration = 0;
  long total = 0;
  /// Mean per-mask imaging loss after the last step; NaN before the first.
  float fit_loss = std::numeric_limits<float>::quiet_NaN();
  /// Mean edge-placement error at the last epe_every evaluation; NaN until
  /// one ran.
  double mean_epe_px = std::numeric_limits<double>::quiet_NaN();
  bool done = false;       ///< the result future is resolved
  bool cancelled = false;  ///< done via cancel()/stop(), not completion
};

struct OpcJobResult {
  /// Continuous masks at the last completed iteration (empty when the job
  /// never started).
  std::vector<Grid<double>> masks;
  /// Resumable state at the last completed iteration; batch == 0 when the
  /// job never started (resubmit the original request instead).
  opc::OpcCheckpoint checkpoint;
  long iterations_done = 0;
  /// True iff the iteration target was reached.
  bool completed = false;
};

namespace detail {
struct OpcJobState {
  mutable Mutex mu;
  OpcJobProgress progress NITHO_GUARDED_BY(mu);
  std::atomic<bool> cancel{false};
  /// Resolved exactly once, by the worker (or stop() for never-started
  /// jobs) — single-resolver discipline, not a lock, is what keeps the
  /// promise safe.
  std::promise<OpcJobResult> promise;
  std::shared_future<OpcJobResult> future;
};
}  // namespace detail

class OpcJobHandle {
 public:
  OpcJobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  OpcJobProgress progress() const;
  std::shared_future<OpcJobResult> result() const { return state_->future; }
  /// Requests a stop after the current step; the result future then
  /// resolves with the resumable partial state.  Idempotent.
  void cancel();

 private:
  friend class OpcService;
  explicit OpcJobHandle(std::shared_ptr<detail::OpcJobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::OpcJobState> state_;
};

class OpcService {
 public:
  using KernelSnapshot = std::shared_ptr<const std::vector<Grid<cd>>>;
  /// True while latency traffic is waiting (the server's queue-depth
  /// probe); null = never yield.
  using BusyFn = std::function<bool()>;

  /// Observability sinks are borrowed (must outlive the service) and bound
  /// at construction — before the worker thread starts, so no publication
  /// race.  With them null the service runs exactly as before.  Job
  /// progress publishes as "opc.*" gauges and each step's vjps as
  /// "opc.vjp.<op>_us" histograms; sampled per-step spans land on tracer
  /// track `track` (DESIGN.md §12.3).
  explicit OpcService(BusyFn busy, obs::MetricsRegistry* registry = nullptr,
                      obs::Tracer* tracer = nullptr, std::uint32_t track = 0);
  ~OpcService();
  OpcService(const OpcService&) = delete;
  OpcService& operator=(const OpcService&) = delete;

  OpcJobHandle submit(KernelSnapshot kernels,
                      std::vector<Grid<double>> intended, OpcJobOptions opts);
  OpcJobHandle resume(KernelSnapshot kernels, opc::OpcCheckpoint checkpoint,
                      OpcJobOptions opts);

  /// Interrupts the running job after its current step, resolves every
  /// accepted future and joins the worker.  Idempotent.
  void stop();

 private:
  struct Job {
    KernelSnapshot kernels;
    std::vector<Grid<double>> intended;          ///< fresh jobs
    std::optional<opc::OpcCheckpoint> checkpoint;  ///< resumed jobs
    OpcJobOptions opts;
    std::shared_ptr<detail::OpcJobState> state;
  };

  OpcJobHandle enqueue(Job job);
  void worker_loop();
  void run_job(Job& job);
  void throttle(const OpcJobOptions& opts) const;

  BusyFn busy_;
  obs::MetricsRegistry* registry_ = nullptr;  ///< borrowed; may be null
  obs::Tracer* tracer_ = nullptr;             ///< borrowed; may be null
  std::uint32_t track_ = 0;
  /// Bound with the registry; only the worker thread records into it.
  std::optional<VjpHistograms> vjp_timers_;
  std::atomic<bool> stop_{false};
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Job> queue_ NITHO_GUARDED_BY(mu_);
  bool stopped_ NITHO_GUARDED_BY(mu_) = false;
  std::thread worker_;
};

}  // namespace nitho::serve
