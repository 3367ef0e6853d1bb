#pragma once
// LithoServer: sharded, micro-batching aerial-image serving on top of
// FastLitho / AerialEngine (DESIGN.md §7).
//
// The synchronous FastLitho API answers one caller at a time; the server
// turns it into a concurrent front end for heavy traffic:
//
//   * N shards, each a pinned worker thread with its own bounded
//     RequestQueue, its own MicroBatcher and its own FastLitho instance.
//     Shard instances share the kernel arrays (FastLitho::kernels_shared)
//     but keep private engine caches, so shard workers never contend on
//     workspaces.  Requests route to a shard by out_px affinity (default:
//     each shard only ever builds engines for the resolutions it serves,
//     which bounds memory together with the FastLitho LRU cap) or round
//     robin.
//   * A future-based client API: submit() moves the mask in and returns a
//     std::future<Grid<double>> that resolves to exactly the grid a direct
//     aerial_from_mask / resist_from_mask call would produce — served
//     results are bit-identical to the synchronous API.
//   * Backpressure: submit() blocks while the shard queue is full;
//     try_submit() fails fast instead.  Either way the server's memory is
//     bounded by shards * (queue_capacity + batcher buckets).
//   * Snapshot hot-swap: swap_kernels() atomically publishes a new kernel
//     set (e.g. a fresh NithoModel export) without draining the server.
//     Every request is served by the snapshot that was current at its
//     submit time; in-flight work on the old kernels finishes on its
//     shared_ptr and the old engines free once the last request drains.
//     Snapshots carry a monotonic generation number (0 = the construction
//     snapshot; swap_kernels returns the new one), so continual-learning
//     rollout (src/rollout/, DESIGN.md §11) can attribute every served
//     result to exactly one model generation — capture-at-submit means a
//     batch never mixes generations.
//   * stop() closes the queues, drains every accepted request and joins
//     the workers: all futures resolve (shutdown never breaks a promise).
//     The destructor calls stop().
//   * Admission control + latency SLO (DESIGN.md §9, off by default):
//     with a SloPolicy installed, every request carries a deadline and the
//     server sheds — at submit, when the shard's estimated wait already
//     exceeds it, or on dequeue, when it expired in the queue — resolving
//     shed futures with DeadlineExceeded instead of letting p99 collapse
//     under overload.  An optional per-shard autotuner (serve/autotune.hpp)
//     steers (max_batch, max_delay) toward the SLO target online.  The
//     policy hot-swaps like kernel snapshots (swap_slo).
//
// Per-shard stats (queue depth, batch count/occupancy, p50/p99 latency
// over a sliding window, shed/goodput accounting) are exported for load
// shedding and dashboards.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/autotune.hpp"
#include "serve/batcher.hpp"
#include "serve/opc_service.hpp"
#include "serve/request_queue.hpp"

namespace nitho::serve {

enum class RouteMode {
  /// Hash out_px to a fixed shard: maximal coalescing, each shard builds
  /// engines only for the resolutions routed to it.
  kOutPxAffinity,
  /// Spread requests evenly regardless of key (uniform load when the
  /// resolution mix is skewed; batches then form per shard).
  kRoundRobin,
};

/// Latency SLO for admission control (DESIGN.md §9).  Installing one (via
/// ServeOptions::slo or swap_slo) turns deadline shedding on; without it
/// the server behaves exactly as before (accepted work queues unboundedly
/// long rather than shedding, and results are bit-preserved either way).
struct SloPolicy {
  /// The latency objective the autotuner steers toward (submit→resolve).
  std::chrono::microseconds target_p99{10000};
  /// Default per-request deadline: a submit without an explicit deadline
  /// gets submit_time + max_queue_wait.  Bounds how long a request may sit
  /// in the shard queue before it is shed instead of served late.
  std::chrono::microseconds max_queue_wait{5000};
  /// Enables the per-shard (max_batch, max_delay) autotuner.
  bool autotune = false;
  AutotuneConfig tuner;
};

struct ServeOptions {
  int shards = 1;
  /// Per-shard queue bound — the backpressure knob.
  std::size_t queue_capacity = 64;
  BatchPolicy batch;
  RouteMode route = RouteMode::kOutPxAffinity;
  /// Admission control + SLO autotune; nullopt (default) = PR 3 behavior.
  std::optional<SloPolicy> slo;
  /// Metrics registry the server publishes into (DESIGN.md §12); null
  /// (default) = the server creates a private one.  Pass a shared registry
  /// to aggregate serve/train/rollout metrics in one snapshot.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Request-span tracing; disabled by default.  With it disabled, every
  /// instrumentation site is a single branch and served results are
  /// bit-identical to a server built without observability at all.
  obs::TraceConfig trace;
};

/// Admission-control accounting (all zero while no SloPolicy is active).
struct ShedStats {
  /// Admitted into a shard queue — mirrors ShardStats::submitted so the
  /// admission picture (accepted vs shed) reads from one struct.
  std::uint64_t accepted = 0;
  std::uint64_t shed_at_submit = 0;  ///< rejected by the wait estimate
  std::uint64_t shed_in_queue = 0;   ///< expired while queued (on dequeue)
  /// Value-resolved completions per second of server uptime — the rate the
  /// SLO gate compares against measured capacity (bench_serve overload).
  double goodput_rps = 0.0;
};

struct ShardStats {
  std::uint64_t submitted = 0;   ///< requests accepted into the queue
  /// Accepted requests whose futures resolved (value, engine error, or
  /// queue shed).  Submit-shed futures also resolve, but those requests
  /// were never accepted and appear only in ShedStats::shed_at_submit.
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;     ///< engine sweeps executed
  /// (completed - shed.shed_in_queue) / batches: queue sheds resolve
  /// without ever occupying a batch slot.
  double mean_batch_occupancy = 0.0;
  std::size_t queue_depth = 0;   ///< instantaneous
  /// Submit-to-resolve latency percentiles in microseconds.  Exact
  /// nearest-rank over every completed request while the sample is small
  /// (each shard keeps its first 64 latencies verbatim); beyond that,
  /// derived from a lifetime log-bucket histogram with a bounded relative
  /// error of ≤ 1/(2·16) ≈ 3.1% (obs::LogHistogram, DESIGN.md §12.2) —
  /// reading them no longer copies and sorts a ring under the stats mutex.
  /// NaN until the first request completes — a fresh server has no
  /// latency, not a ~0 µs one; printers should show "n/a" while
  /// latency_samples == 0.
  double p50_latency_us = std::numeric_limits<double>::quiet_NaN();
  double p99_latency_us = std::numeric_limits<double>::quiet_NaN();
  /// Completed requests contributing to the percentiles.
  std::uint64_t latency_samples = 0;
  /// EWMA of per-request service time (µs), the basis of the submit-path
  /// wait estimate; 0 until the first batch completes.
  double est_service_us = 0.0;
  ShedStats shed;
  /// The shard's current flush policy (moves under autotune) and how many
  /// tuning decisions have changed it.
  int max_batch = 0;
  double max_delay_us = 0.0;
  std::uint64_t autotune_updates = 0;
  /// Generation of the kernel snapshot a submit would capture now (0 until
  /// the first swap_kernels).  In the all-shard aggregate: the newest
  /// generation any shard serves.
  std::uint64_t kernel_generation = 0;
};

/// Renders a ShardStats latency percentile for humans: "123 us", or "n/a"
/// while the window is empty (the NaN sentinel must not print as 0 µs).
/// Shared by bench_serve and serve_demo so the sentinel handling cannot
/// drift between printers.
std::string latency_str(double us, std::uint64_t samples);

/// Nearest-rank percentile index into a sorted sample of size n (>= 1):
/// ceil(percent/100 * n) - 1, computed in integer arithmetic.  The ceil is
/// what makes small windows honest — the floor-style (99*(n-1))/100 the
/// stats used before returns the *minimum* for n <= 2 and biases the tail
/// low until the window fills.  Delegates to obs::nearest_rank_index so the
/// exact small-window path and the histogram quantile share one rank rule.
std::size_t percentile_index(std::size_t n, int percent);

class LithoServer {
 public:
  explicit LithoServer(FastLitho litho, ServeOptions options = {});
  ~LithoServer();
  LithoServer(const LithoServer&) = delete;
  LithoServer& operator=(const LithoServer&) = delete;

  /// Submits one mask for aerial (or resist) simulation at out_px.  Blocks
  /// while the target shard's queue is full (backpressure); throws
  /// check_error if the server is stopped or the request is invalid: an
  /// empty mask, a NaN or Inf mask value, or out_px < kernel_dim of the
  /// current kernel snapshot.
  ///
  /// `deadline` bounds how long the request may wait in the shard queue.
  /// kNoDeadline means: the shard's SloPolicy default (submit time +
  /// max_queue_wait) when one is installed, otherwise no deadline at all.
  /// A request the server decides cannot meet its deadline is shed — its
  /// future resolves with DeadlineExceeded (the mask is consumed either
  /// way; shedding is an answer, not backpressure).
  std::future<Grid<double>> submit(
      Grid<double> mask, int out_px, RequestKind kind = RequestKind::kAerial,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Non-blocking submit: nullopt (mask intact) when the shard queue is
  /// full — the caller's load-shedding signal.  A stopped server is not
  /// retryable, so it throws check_error like submit() instead of
  /// masquerading as backpressure.  Deadline semantics as in submit(): an
  /// admission shed returns a DeadlineExceeded future, not nullopt.
  std::optional<std::future<Grid<double>>> try_submit(
      Grid<double>& mask, int out_px, RequestKind kind = RequestKind::kAerial,
      std::chrono::steady_clock::time_point deadline = kNoDeadline);

  /// Second request class: a long-running OPC job over the batched
  /// opc::OpcEngine (DESIGN.md §10).  Captures the kernel snapshot and the
  /// resist threshold a submit routed to shard 0 would see now — later
  /// swap_kernels calls do not retarget a running job, exactly like
  /// in-flight aerial requests.  The job runs on the OpcService's own
  /// worker and yields to queued latency traffic between steps, so it
  /// never starves the SLO'd aerial path; progress (iteration, loss, EPE)
  /// polls through the returned handle and the result future resolves on
  /// completion, cancel or stop() — always with a resumable checkpoint
  /// once the job has started.
  OpcJobHandle submit_opc(std::vector<Grid<double>> intended,
                          OpcJobOptions opts = {});
  /// Continues a checkpointed job (possibly from another server) toward
  /// opts.iterations, bit-identically to an uninterrupted run when the
  /// kernel snapshot is the same.
  OpcJobHandle resume_opc(opc::OpcCheckpoint checkpoint,
                          OpcJobOptions opts = {});

  /// Publishes a new kernel snapshot (shape may differ from the old one)
  /// and returns its generation number (monotonic, starting at 1; the
  /// construction snapshot is generation 0).  Requests submitted before
  /// the swap are still served by the old kernels; requests submitted
  /// after see the new ones.  Because every request captures its snapshot
  /// at submit, a served result belongs to exactly one generation.
  std::uint64_t swap_kernels(FastLitho fresh);

  /// Publishes a new SLO policy (or removes it with nullopt) without
  /// draining the server — the admission-control analogue of
  /// swap_kernels.  Requests submitted after the swap get deadlines (and
  /// shedding) under the new policy; queued requests keep the deadlines
  /// they were admitted with.  Each shard worker picks the change up on
  /// its next dequeue and rebuilds (or drops) its autotuner, starting
  /// again from the configured BatchPolicy.
  void swap_slo(std::optional<SloPolicy> slo);

  /// The SLO policy a submit routed to `shard` would see now (null when
  /// admission control is off).
  std::shared_ptr<const SloPolicy> slo(int shard = 0) const;

  /// The kernel snapshot a submit routed to `shard` would capture now.
  std::shared_ptr<const FastLitho> snapshot(int shard = 0) const;

  /// The generation of that snapshot.  Published under the same lock as
  /// the snapshot itself; to attribute a result to a generation, use the
  /// value swap_kernels returned rather than re-reading this across a
  /// racing swap.
  std::uint64_t generation(int shard = 0) const;

  /// Close queues, drain accepted requests, join workers.  Idempotent and
  /// safe to call concurrently; submits racing with stop either complete
  /// or throw, but an accepted future always resolves.
  void stop();

  int shards() const { return static_cast<int>(shards_.size()); }
  /// Routing decision, exposed for tests: the shard index under
  /// kOutPxAffinity, or -1 under kRoundRobin (any shard — the actual pick
  /// happens per submit).  Do not feed -1 to shard_stats/snapshot.
  int shard_of(int out_px) const;
  ShardStats shard_stats(int shard) const;
  ShardStats stats() const;  ///< aggregate over all shards

  /// The registry the server publishes into (ServeOptions::metrics, or the
  /// private one it created).  Valid for the server's lifetime.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  std::shared_ptr<obs::MetricsRegistry> metrics_shared() const {
    return metrics_;
  }
  /// The request tracer (tracks 0..shards-1 = shard workers, track shards =
  /// the OPC worker).  Always constructed; inert unless
  /// ServeOptions::trace.enabled.
  obs::Tracer& tracer() const { return *tracer_; }

 private:
  struct Shard;

  Shard& route(int out_px);
  /// Validates against the shard's current snapshot and only then moves
  /// the mask into the returned request (a throw leaves `mask` intact).
  /// Also stamps the request's deadline (explicit, or the SLO default).
  ServeRequest make_request(Shard& shard, Grid<double>& mask, int out_px,
                            RequestKind kind,
                            std::chrono::steady_clock::time_point deadline)
      const;
  /// Admission check (DESIGN.md §9.2): true when the request was shed at
  /// submit — its future is already resolved with DeadlineExceeded.
  bool shed_at_submit(Shard& shard, ServeRequest& req);
  void shard_loop(Shard& shard);
  void execute_batch(Shard& shard, Batch batch, TuneWindow* window);

  ServeOptions options_;
  /// Observability sinks; created before the shards, which cache borrowed
  /// metric references, so they must be declared (and thus destroyed)
  /// after-first / before-last relative to shards_.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  /// Ids handed to sampled (traced) requests; correlates a request's spans.
  std::atomic<std::uint64_t> trace_seq_{1};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> round_robin_{0};
  /// Kernel-snapshot generations handed out so far (the construction
  /// snapshot is generation 0; the first swap publishes 1).
  std::atomic<std::uint64_t> generation_{0};
  /// OPC job runner; stopped (and its futures resolved) before the shard
  /// queues close, so a draining job stops probing shard state.
  std::unique_ptr<OpcService> opc_;
  Mutex stop_mu_;
  bool stopped_ NITHO_GUARDED_BY(stop_mu_) = false;
};

}  // namespace nitho::serve
