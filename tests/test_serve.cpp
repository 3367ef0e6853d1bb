// Tests for src/serve/: RequestQueue backpressure/shutdown semantics,
// MicroBatcher flush policy, and the LithoServer contract — every served
// result bit-identical to the corresponding direct FastLitho call under
// concurrent mixed load, deadline-triggered partial batches, backpressure
// with a full queue, kernel hot-swap mid-stream, and clean shutdown with
// all futures resolved.  This suite also runs under the `tsan` preset.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "metrics/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "support/test_support.hpp"

namespace nitho {
namespace {

using serve::Batch;
using serve::BatchPolicy;
using serve::LithoServer;
using serve::MicroBatcher;
using serve::RequestKind;
using serve::RequestQueue;
using serve::RouteMode;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::ShardStats;
using test::make_rng;
using test::random_kernels;
using test::random_mask;

using Clock = std::chrono::steady_clock;

ServeRequest make_req(int tag, std::shared_ptr<const FastLitho> litho,
                      int out_px = 16,
                      Clock::time_point deadline = serve::kNoDeadline) {
  ServeRequest req;
  req.mask = Grid<double>(1, 1, static_cast<double>(tag));
  req.out_px = out_px;
  req.litho = std::move(litho);
  req.deadline = deadline;
  return req;
}

std::shared_ptr<const FastLitho> dummy_litho(std::uint64_t salt) {
  Rng rng = make_rng(salt);
  return std::make_shared<const FastLitho>(
      FastLitho(random_kernels(1, 3, rng)));
}

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

TEST(RequestQueue, FifoOrderAndDepth) {
  RequestQueue q(4);
  const auto litho = dummy_litho(1);
  for (int i = 0; i < 3; ++i) {
    ServeRequest r = make_req(i, litho);
    ASSERT_TRUE(q.push(r));
  }
  EXPECT_EQ(q.depth(), 3u);
  for (int i = 0; i < 3; ++i) {
    ServeRequest out;
    ASSERT_EQ(q.pop(out), RequestQueue::PopResult::kItem);
    EXPECT_EQ(out.mask(0, 0), static_cast<double>(i));
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueue, TryPushFailsWhenFullAndKeepsRequest) {
  RequestQueue q(2);
  const auto litho = dummy_litho(2);
  ServeRequest a = make_req(0, litho), b = make_req(1, litho);
  ASSERT_EQ(q.try_push(a), RequestQueue::PushResult::kOk);
  ASSERT_EQ(q.try_push(b), RequestQueue::PushResult::kOk);
  ServeRequest c = make_req(42, litho);
  // Full is retryable backpressure, distinct from kClosed (terminal).
  EXPECT_EQ(q.try_push(c), RequestQueue::PushResult::kFull);
  // The rejected request is intact: the caller can retry or fail it.
  EXPECT_EQ(c.mask(0, 0), 42.0);
  EXPECT_TRUE(c.litho != nullptr);
}

TEST(RequestQueue, PushBlocksUntilPopMakesRoom) {
  RequestQueue q(1);
  const auto litho = dummy_litho(3);
  ServeRequest first = make_req(0, litho);
  ASSERT_TRUE(q.push(first));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ServeRequest second = make_req(1, litho);
    ASSERT_TRUE(q.push(second));  // must block until the pop below
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked on the full queue
  ServeRequest out;
  ASSERT_EQ(q.pop(out), RequestQueue::PopResult::kItem);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_EQ(q.pop(out), RequestQueue::PopResult::kItem);
  EXPECT_EQ(out.mask(0, 0), 1.0);
}

TEST(RequestQueue, CloseDrainsAcceptedItemsThenReportsClosed) {
  RequestQueue q(4);
  const auto litho = dummy_litho(4);
  ServeRequest a = make_req(7, litho);
  ASSERT_TRUE(q.push(a));
  q.close();
  ServeRequest b = make_req(8, litho);
  EXPECT_FALSE(q.push(b));      // refused, request intact
  EXPECT_EQ(q.try_push(b), RequestQueue::PushResult::kClosed);
  EXPECT_EQ(b.mask(0, 0), 8.0);
  ServeRequest out;
  ASSERT_EQ(q.pop(out), RequestQueue::PopResult::kItem);  // drains
  EXPECT_EQ(out.mask(0, 0), 7.0);
  EXPECT_EQ(q.pop(out), RequestQueue::PopResult::kClosed);
  EXPECT_EQ(q.pop_until(out, Clock::now() + std::chrono::milliseconds(5)),
            RequestQueue::PopResult::kClosed);
}

TEST(RequestQueue, CloseWakesBlockedProducerAndConsumer) {
  RequestQueue q(1);
  const auto litho = dummy_litho(5);
  ServeRequest fill = make_req(0, litho);
  ASSERT_TRUE(q.push(fill));
  std::thread producer([&] {
    ServeRequest r = make_req(1, litho);
    EXPECT_FALSE(q.push(r));  // blocked on full, then woken by close
  });
  RequestQueue empty(1);
  std::thread consumer([&] {
    ServeRequest out;
    EXPECT_EQ(empty.pop(out), RequestQueue::PopResult::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  empty.close();
  producer.join();
  consumer.join();
}

TEST(RequestQueue, PopUntilTimesOutOnEmptyQueue) {
  RequestQueue q(2);
  ServeRequest out;
  EXPECT_EQ(q.pop_until(out, Clock::now() + std::chrono::milliseconds(5)),
            RequestQueue::PopResult::kTimeout);
}

// ---------------------------------------------------------------------------
// MicroBatcher
// ---------------------------------------------------------------------------

TEST(MicroBatcher, SizeFlushAtMaxBatch) {
  MicroBatcher batcher({.max_batch = 3, .max_delay = std::chrono::hours(1)});
  const auto litho = dummy_litho(10);
  const auto now = Clock::now();
  EXPECT_FALSE(batcher.add(make_req(0, litho), now).has_value());
  EXPECT_FALSE(batcher.add(make_req(1, litho), now).has_value());
  auto full = batcher.add(make_req(2, litho), now);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->requests.size(), 3u);
  EXPECT_EQ(full->out_px, 16);
  EXPECT_EQ(full->litho.get(), litho.get());
  EXPECT_EQ(batcher.pending_requests(), 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(full->requests[static_cast<std::size_t>(i)].mask(0, 0),
              static_cast<double>(i));
  }
}

TEST(MicroBatcher, MaxBatchOneFlushesImmediately) {
  MicroBatcher batcher({.max_batch = 1, .max_delay = std::chrono::hours(1)});
  auto batch = batcher.add(make_req(0, dummy_litho(11)), Clock::now());
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 1u);
  EXPECT_EQ(batcher.pending_buckets(), 0u);
}

TEST(MicroBatcher, SeparateBucketsPerOutPxAndKernelSet) {
  MicroBatcher batcher({.max_batch = 8, .max_delay = std::chrono::hours(1)});
  const auto lithoA = dummy_litho(12);
  const auto lithoB = dummy_litho(13);
  const auto now = Clock::now();
  EXPECT_FALSE(batcher.add(make_req(0, lithoA, 16), now).has_value());
  EXPECT_FALSE(batcher.add(make_req(1, lithoA, 32), now).has_value());
  EXPECT_FALSE(batcher.add(make_req(2, lithoB, 16), now).has_value());
  EXPECT_EQ(batcher.pending_buckets(), 3u);  // (A,16) (A,32) (B,16)
  EXPECT_FALSE(batcher.add(make_req(3, lithoA, 16), now).has_value());
  EXPECT_EQ(batcher.pending_buckets(), 3u);  // coalesced into (A,16)
  EXPECT_EQ(batcher.pending_requests(), 4u);
}

TEST(MicroBatcher, DeadlinePollFlushesOldestFirst) {
  const auto delay = std::chrono::milliseconds(10);
  MicroBatcher batcher({.max_batch = 8, .max_delay = delay});
  const auto lithoA = dummy_litho(14);
  const auto lithoB = dummy_litho(15);
  const auto t0 = Clock::now();
  EXPECT_FALSE(batcher.add(make_req(0, lithoA, 16), t0).has_value());
  EXPECT_FALSE(batcher.add(make_req(1, lithoB, 20), t0 + delay).has_value());
  ASSERT_TRUE(batcher.next_deadline().has_value());
  EXPECT_EQ(*batcher.next_deadline(), t0 + delay);
  EXPECT_FALSE(batcher.poll(t0 + delay / 2).has_value());  // nothing expired
  auto first = batcher.poll(t0 + 3 * delay);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->litho.get(), lithoA.get());  // older bucket first
  auto second = batcher.poll(t0 + 3 * delay);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->litho.get(), lithoB.get());
  EXPECT_FALSE(batcher.poll(t0 + 3 * delay).has_value());
  EXPECT_FALSE(batcher.next_deadline().has_value());
}

TEST(MicroBatcher, DrainFlushesEverythingRegardlessOfDeadline) {
  MicroBatcher batcher({.max_batch = 8, .max_delay = std::chrono::hours(1)});
  const auto now = Clock::now();
  EXPECT_FALSE(batcher.add(make_req(0, dummy_litho(16), 16), now).has_value());
  EXPECT_FALSE(batcher.add(make_req(1, dummy_litho(17), 24), now).has_value());
  const std::vector<Batch> all = batcher.drain();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(batcher.pending_requests(), 0u);
}

TEST(MicroBatcher, TrickleLoadCannotStarveTheFlushDeadline) {
  // A bucket's flush deadline is set by its *oldest* request and must not
  // slide as later requests coalesce into it: under trickle load arriving
  // just under max_delay apart, a sliding deadline would starve the bucket
  // forever.
  const auto delay = std::chrono::milliseconds(10);
  MicroBatcher batcher({.max_batch = 64, .max_delay = delay});
  const auto litho = dummy_litho(18);
  const auto t0 = Clock::now();
  EXPECT_FALSE(batcher.add(make_req(0, litho), t0).has_value());
  ASSERT_TRUE(batcher.next_deadline().has_value());
  EXPECT_EQ(*batcher.next_deadline(), t0 + delay);
  // Keep trickling into the same bucket right up to (and past) the flush
  // point; the deadline must stay anchored at t0 + delay throughout.
  EXPECT_FALSE(batcher.add(make_req(1, litho), t0 + delay / 2).has_value());
  EXPECT_EQ(*batcher.next_deadline(), t0 + delay);
  EXPECT_FALSE(
      batcher.add(make_req(2, litho), t0 + 9 * delay / 10).has_value());
  EXPECT_EQ(*batcher.next_deadline(), t0 + delay);
  // At the anchored deadline the bucket flushes with everything coalesced.
  auto flushed = batcher.poll(t0 + delay);
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->requests.size(), 3u);
  EXPECT_EQ(batcher.pending_requests(), 0u);
}

TEST(MicroBatcher, ShedsExpiredRequestOnDequeueForCallerResolution) {
  MicroBatcher batcher({.max_batch = 8, .max_delay = std::chrono::hours(1)});
  const auto litho = dummy_litho(19);
  const auto t0 = Clock::now();
  // Expired while queued: never filed, set aside intact via take_shed().
  // The batcher leaves the promise pending so its owner can account the
  // shed before the client can observe the future resolve.
  ServeRequest expired = make_req(7, litho, 16, t0);
  std::future<Grid<double>> fut = expired.result.get_future();
  EXPECT_FALSE(
      batcher.add(std::move(expired), t0 + std::chrono::milliseconds(1))
          .has_value());
  EXPECT_EQ(batcher.pending_requests(), 0u);
  std::vector<ServeRequest> shed = batcher.take_shed();
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].mask(0, 0), 7.0);  // request intact, promise pending
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  shed[0].result.set_exception(std::make_exception_ptr(
      serve::DeadlineExceeded("shed")));
  EXPECT_THROW(fut.get(), serve::DeadlineExceeded);
  EXPECT_TRUE(batcher.take_shed().empty());  // drained
  // A live deadline and the kNoDeadline default are both filed normally.
  EXPECT_FALSE(batcher
                   .add(make_req(1, litho, 16,
                                 t0 + std::chrono::hours(2)),
                        t0)
                   .has_value());
  EXPECT_FALSE(batcher.add(make_req(2, litho), t0).has_value());
  EXPECT_EQ(batcher.pending_requests(), 2u);
  EXPECT_TRUE(batcher.take_shed().empty());
}

TEST(MicroBatcher, SetPolicyHotSwapsTheFlushThresholds) {
  MicroBatcher batcher({.max_batch = 8, .max_delay = std::chrono::hours(1)});
  const auto litho = dummy_litho(20);
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(batcher.add(make_req(i, litho), t0).has_value());
  }
  // The autotuner's hot-swap point: lowering max_batch makes the existing
  // bucket flush on its next add.
  batcher.set_policy({.max_batch = 2, .max_delay = std::chrono::hours(1)});
  EXPECT_EQ(batcher.policy().max_batch, 2);
  auto full = batcher.add(make_req(3, litho), t0);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->requests.size(), 4u);
  // New buckets use the new max_delay for their flush deadline.
  batcher.set_policy({.max_batch = 8, .max_delay = std::chrono::milliseconds(3)});
  EXPECT_FALSE(batcher.add(make_req(4, litho), t0).has_value());
  ASSERT_TRUE(batcher.next_deadline().has_value());
  EXPECT_EQ(*batcher.next_deadline(), t0 + std::chrono::milliseconds(3));
}

// ---------------------------------------------------------------------------
// LithoServer
// ---------------------------------------------------------------------------

/// Shared fixture state: one kernel set plus an independent reference
/// FastLitho (same kernel values => bit-identical arithmetic) that all
/// expectations are computed against.
struct ServerHarness {
  explicit ServerHarness(std::uint64_t seed, int rank = 12, int kdim = 9)
      : rng(make_rng(seed)),
        kernels(random_kernels(rank, kdim, rng)),
        reference(std::vector<Grid<cd>>(kernels)) {}

  FastLitho make_litho() const { return FastLitho(std::vector<Grid<cd>>(kernels)); }

  Grid<double> expected(const Grid<double>& mask, int out_px,
                        RequestKind kind) const {
    return kind == RequestKind::kResist
               ? reference.resist_from_mask(mask, out_px)
               : reference.aerial_from_mask(mask, out_px);
  }

  Rng rng;
  std::vector<Grid<cd>> kernels;
  FastLitho reference;
};

TEST(LithoServer, ServesBitIdenticalResultsUnderConcurrentMixedLoad) {
  ServerHarness h(101);
  for (const auto route : {RouteMode::kOutPxAffinity, RouteMode::kRoundRobin}) {
    ServeOptions opts;
    opts.shards = 2;
    opts.queue_capacity = 32;
    opts.batch.max_batch = 4;
    opts.batch.max_delay = std::chrono::microseconds(200);
    opts.route = route;
    LithoServer server(h.make_litho(), opts);

    constexpr int kClients = 4;
    constexpr int kPerClient = 24;
    const int out_pxs[] = {16, 20, 33};
    struct Expect {
      Grid<double> mask;
      int out_px;
      RequestKind kind;
      std::future<Grid<double>> fut;
    };
    std::vector<std::vector<Expect>> per_client(kClients);
    // Pre-generate masks on the main thread (Rng is not thread-safe).
    std::vector<std::vector<Grid<double>>> masks(kClients);
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPerClient; ++i) {
        masks[static_cast<std::size_t>(c)].push_back(random_mask(32, 32, h.rng));
      }
    }
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto& mine = per_client[static_cast<std::size_t>(c)];
        for (int i = 0; i < kPerClient; ++i) {
          Expect e;
          e.mask = masks[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
          e.out_px = out_pxs[(c + i) % 3];
          e.kind = ((c + i) % 4 == 0) ? RequestKind::kResist
                                      : RequestKind::kAerial;
          e.fut = server.submit(e.mask, e.out_px, e.kind);
          mine.push_back(std::move(e));
        }
      });
    }
    for (auto& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      for (auto& e : per_client[static_cast<std::size_t>(c)]) {
        EXPECT_EQ(e.fut.get(), h.expected(e.mask, e.out_px, e.kind))
            << "client " << c << " out_px " << e.out_px;
      }
    }
    const ShardStats total = server.stats();
    EXPECT_EQ(total.submitted, static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_EQ(total.completed, total.submitted);
    EXPECT_GE(total.batches, 1u);
    EXPECT_GE(total.mean_batch_occupancy, 1.0);
    EXPECT_LE(total.p50_latency_us, total.p99_latency_us);
    server.stop();
    EXPECT_EQ(server.stats().queue_depth, 0u);
  }
}

TEST(LithoServer, ObsEnabledServingIsBitIdenticalAndMetricsMirrorStats) {
  // ISSUE 8 acceptance pin: with the observability layer fully on (shared
  // registry, tracing at default sampling), every served result is still
  // byte-for-byte the direct FastLitho computation — instrumentation is
  // timing-only and never touches the arithmetic.
  ServerHarness h(115);
  auto registry = std::make_shared<obs::MetricsRegistry>();
  ServeOptions opts;
  opts.shards = 2;
  opts.batch.max_batch = 4;
  opts.metrics = registry;
  opts.trace.enabled = true;  // default sample_every = 16
  LithoServer server(h.make_litho(), opts);

  constexpr int kRequests = 48;
  std::vector<Grid<double>> masks;
  std::vector<std::future<Grid<double>>> futs;
  for (int i = 0; i < kRequests; ++i) {
    masks.push_back(random_mask(32, 32, h.rng));
    const auto kind =
        (i % 3 == 0) ? RequestKind::kResist : RequestKind::kAerial;
    futs.push_back(server.submit(masks.back(), 16, kind));
  }
  for (int i = 0; i < kRequests; ++i) {
    const auto kind =
        (i % 3 == 0) ? RequestKind::kResist : RequestKind::kAerial;
    ASSERT_EQ(futs[static_cast<std::size_t>(i)].get(),
              h.expected(masks[static_cast<std::size_t>(i)], 16, kind))
        << "request " << i;
  }

  // The registry mirrors the authoritative shard accounting.
  const ShardStats total = server.stats();
  EXPECT_EQ(total.completed, static_cast<std::uint64_t>(kRequests));
  const obs::MetricsSnapshot snap = registry->snapshot();
  std::uint64_t m_submitted = 0, m_completed = 0, m_hist = 0;
  for (int s = 0; s < server.shards(); ++s) {
    const std::string prefix = "serve.shard" + std::to_string(s) + ".";
    const auto* sub = snap.find(prefix + "submitted");
    const auto* comp = snap.find(prefix + "completed");
    const auto* lat = snap.find(prefix + "latency_us");
    ASSERT_NE(sub, nullptr);
    ASSERT_NE(comp, nullptr);
    ASSERT_NE(lat, nullptr);
    m_submitted += static_cast<std::uint64_t>(sub->value);
    m_completed += static_cast<std::uint64_t>(comp->value);
    m_hist += lat->hist.count;
  }
  EXPECT_EQ(m_submitted, total.submitted);
  EXPECT_EQ(m_completed, total.completed);
  EXPECT_EQ(m_hist, total.completed);  // every completion recorded a latency

  // Default 1/16 sampling over 48 requests traced at least one request,
  // i.e. the tracer retained spans.
  EXPECT_FALSE(server.tracer().events().empty());
  server.stop();
}

TEST(LithoServer, StatsSwitchToHistogramPercentilesPastExactWindow) {
  // Past the per-shard exact window the percentiles come from the
  // lifetime log-bucket histogram: pin that the reported values equal the
  // histogram's own quantiles (the 3.1% relative error bound is test_obs's
  // claim; here we pin the switchover itself).
  ServerHarness h(116);
  auto registry = std::make_shared<obs::MetricsRegistry>();
  ServeOptions opts;
  opts.shards = 1;
  opts.batch.max_batch = 4;
  opts.metrics = registry;
  LithoServer server(h.make_litho(), opts);

  constexpr int kRequests = 80;  // > kExactWindow (64) on the one shard
  std::vector<std::future<Grid<double>>> futs;
  Grid<double> mask = random_mask(32, 32, h.rng);
  for (int i = 0; i < kRequests; ++i) {
    futs.push_back(server.submit(mask, 16));
  }
  for (auto& f : futs) (void)f.get();

  const ShardStats st = server.shard_stats(0);
  EXPECT_EQ(st.latency_samples, static_cast<std::uint64_t>(kRequests));
  const obs::MetricsSnapshot snap = registry->snapshot();
  const auto* lat = snap.find("serve.shard0.latency_us");
  ASSERT_NE(lat, nullptr);
  ASSERT_EQ(lat->hist.count, static_cast<std::uint64_t>(kRequests));
  EXPECT_DOUBLE_EQ(st.p50_latency_us, lat->hist.quantile(50));
  EXPECT_DOUBLE_EQ(st.p99_latency_us, lat->hist.quantile(99));
  EXPECT_LE(st.p50_latency_us, st.p99_latency_us);
  server.stop();
}

TEST(LithoServer, DeadlineFlushResolvesPartialBatches) {
  ServerHarness h(102);
  ServeOptions opts;
  opts.batch.max_batch = 64;  // never fills by size
  opts.batch.max_delay = std::chrono::milliseconds(2);
  LithoServer server(h.make_litho(), opts);
  std::vector<Grid<double>> masks;
  std::vector<std::future<Grid<double>>> futs;
  for (int i = 0; i < 3; ++i) {
    masks.push_back(random_mask(32, 32, h.rng));
    futs.push_back(server.submit(masks.back(), 16));
  }
  // Only the latency deadline can flush this batch of 3.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(),
              h.expected(masks[static_cast<std::size_t>(i)], 16,
                         RequestKind::kAerial));
  }
  const ShardStats st = server.stats();
  EXPECT_EQ(st.completed, 3u);
  EXPECT_GE(st.batches, 1u);
  EXPECT_LE(st.batches, 3u);
}

TEST(LithoServer, BackpressureBlocksAndTrySubmitShedsWhenQueueFull) {
  // Occupy the shared pool so the shard worker blocks mid-execute: the
  // queue then fills deterministically.  rank 17 -> 3 kernel chunks, so
  // the engine sweep must take the pool's dispatch lock (workers == 2).
  set_parallel_workers(2);
  ServerHarness h(103, /*rank=*/17, /*kdim=*/9);
  ServeOptions opts;
  opts.queue_capacity = 2;
  opts.batch.max_batch = 1;  // execute immediately on pop
  LithoServer server(h.make_litho(), opts);

  std::latch pool_entered(2);
  std::latch release_pool(1);
  std::thread pool_hog([&] {
    parallel_for(2, [&](std::int64_t) {
      pool_entered.count_down();
      release_pool.wait();
    });
  });
  pool_entered.wait();  // both pool slots are now blocked

  struct Pending {
    Grid<double> mask;
    std::future<Grid<double>> fut;
  };
  std::vector<Pending> accepted;
  // Probe request: once the worker has popped it (queue depth back to 0),
  // it is committed to an execute that cannot finish while the pool is
  // held — from here on, nothing drains the queue.
  {
    Grid<double> mask = random_mask(32, 32, h.rng);
    accepted.push_back({mask, server.submit(std::move(mask), 16)});
    while (server.shard_stats(0).queue_depth != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  bool shed = false;
  for (int i = 0; i < 8 && !shed; ++i) {
    Grid<double> mask = random_mask(32, 32, h.rng);
    Grid<double> copy = mask;
    if (auto fut = server.try_submit(mask, 16)) {
      accepted.push_back({std::move(copy), std::move(*fut)});
    } else {
      shed = true;
      EXPECT_FALSE(mask.empty());  // rejected mask handed back intact
    }
  }
  EXPECT_TRUE(shed);
  // The probe in the worker plus exactly queue_capacity queued requests.
  EXPECT_EQ(accepted.size(), 3u);

  // A blocking submit must park on the full queue instead of failing...
  std::atomic<bool> unblocked{false};
  Grid<double> blocked_mask = random_mask(32, 32, h.rng);
  Pending blocked;
  blocked.mask = blocked_mask;
  std::thread blocked_client([&] {
    blocked.fut = server.submit(std::move(blocked_mask), 16);
    unblocked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unblocked.load());

  // ...and everything resolves once the pool frees up.
  release_pool.count_down();
  pool_hog.join();
  blocked_client.join();
  EXPECT_TRUE(unblocked.load());
  for (auto& p : accepted) {
    EXPECT_EQ(p.fut.get(), h.expected(p.mask, 16, RequestKind::kAerial));
  }
  EXPECT_EQ(blocked.fut.get(), h.expected(blocked.mask, 16, RequestKind::kAerial));
  server.stop();
  set_parallel_workers(0);
}

TEST(LithoServer, KernelHotSwapMidStreamKeepsSnapshotSemantics) {
  Rng rng = make_rng(104);
  const std::vector<Grid<cd>> kernels_a = random_kernels(10, 9, rng);
  const std::vector<Grid<cd>> kernels_b = random_kernels(5, 13, rng);
  const FastLitho ref_a{std::vector<Grid<cd>>(kernels_a)};
  const FastLitho ref_b{std::vector<Grid<cd>>(kernels_b)};

  ServeOptions opts;
  opts.batch.max_batch = 64;
  opts.batch.max_delay = std::chrono::milliseconds(50);
  LithoServer server(FastLitho{std::vector<Grid<cd>>(kernels_a)}, opts);

  // Wave A parks in the batcher (deadline far away)...
  std::vector<Grid<double>> masks_a, masks_b;
  std::vector<std::future<Grid<double>>> futs_a, futs_b;
  for (int i = 0; i < 4; ++i) {
    masks_a.push_back(random_mask(32, 32, rng));
    futs_a.push_back(server.submit(masks_a.back(), 16));
  }
  // ...the swap lands mid-stream...
  server.swap_kernels(FastLitho{std::vector<Grid<cd>>(kernels_b)});
  EXPECT_EQ(server.snapshot()->kernel_dim(), 13);
  // ...and wave B follows on the new kernels.
  for (int i = 0; i < 4; ++i) {
    masks_b.push_back(random_mask(32, 32, rng));
    futs_b.push_back(server.submit(masks_b.back(), 16));
  }
  // Every request is served by the snapshot captured at its submit time,
  // bit-identically, no matter when its batch actually executed.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(futs_a[static_cast<std::size_t>(i)].get(),
              ref_a.aerial_from_mask(masks_a[static_cast<std::size_t>(i)], 16));
    EXPECT_EQ(futs_b[static_cast<std::size_t>(i)].get(),
              ref_b.aerial_from_mask(masks_b[static_cast<std::size_t>(i)], 16));
  }
}

TEST(LithoServer, StopDrainsEveryAcceptedRequestAndRefusesNewOnes) {
  ServerHarness h(105);
  ServeOptions opts;
  opts.batch.max_batch = 64;
  opts.batch.max_delay = std::chrono::seconds(5);  // only drain can flush
  LithoServer server(h.make_litho(), opts);
  std::vector<Grid<double>> masks;
  std::vector<std::future<Grid<double>>> futs;
  for (int i = 0; i < 6; ++i) {
    masks.push_back(random_mask(32, 32, h.rng));
    futs.push_back(server.submit(masks.back(), 16, RequestKind::kResist));
  }
  const auto t0 = Clock::now();
  server.stop();  // must not wait out the 5 s deadline
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(4));
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(),
              h.expected(masks[static_cast<std::size_t>(i)], 16,
                         RequestKind::kResist));
  }
  EXPECT_EQ(server.stats().completed, 6u);
  EXPECT_THROW(server.submit(random_mask(32, 32, h.rng), 16), check_error);
  // try_submit must not report a stopped server as mere backpressure — a
  // shed-and-retry loop would spin forever.
  Grid<double> m = random_mask(32, 32, h.rng);
  EXPECT_THROW(server.try_submit(m, 16), check_error);
  server.stop();  // idempotent
}

TEST(LithoServer, DestructorResolvesOutstandingFutures) {
  ServerHarness h(106);
  std::vector<Grid<double>> masks;
  std::vector<std::future<Grid<double>>> futs;
  {
    ServeOptions opts;
    opts.batch.max_batch = 64;
    opts.batch.max_delay = std::chrono::seconds(5);
    LithoServer server(h.make_litho(), opts);
    for (int i = 0; i < 3; ++i) {
      masks.push_back(random_mask(32, 32, h.rng));
      futs.push_back(server.submit(masks.back(), 16));
    }
  }  // ~LithoServer == stop()
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(),
              h.expected(masks[static_cast<std::size_t>(i)], 16,
                         RequestKind::kAerial));
  }
}

TEST(LithoServer, RejectsInvalidSubmissions) {
  ServerHarness h(107);  // kdim 9
  LithoServer server(h.make_litho());
  EXPECT_THROW(server.submit(Grid<double>(), 16), check_error);
  EXPECT_THROW(server.submit(random_mask(32, 32, h.rng), 8), check_error);
  // Validation failures leave the caller's mask intact (like a full-queue
  // rejection), so a shed-and-retry loop can retry the same request.
  Grid<double> mask = random_mask(32, 32, h.rng);
  const Grid<double> copy = mask;
  EXPECT_THROW(server.try_submit(mask, 8), check_error);
  EXPECT_EQ(mask, copy);
  EXPECT_EQ(server.stats().submitted, 0u);  // rejected work is not counted
}

TEST(LithoServer, RejectsNonFiniteMasks) {
  // A NaN is never served: a NaN or Inf pixel would spread through the
  // FFTs into the whole aerial.  The rejection happens before the mask is
  // moved, so try_submit hands it back bit for bit, and nothing is counted.
  ServerHarness h(108);
  LithoServer server(h.make_litho());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Grid<double> mask = random_mask(32, 32, h.rng);
    mask(5, 7) = bad;
    const Grid<double> copy = mask;
    const auto untouched = [&] {
      return mask.size() == copy.size() &&
             std::memcmp(mask.data(), copy.data(),
                         mask.size() * sizeof(double)) == 0;
    };
    EXPECT_THROW(server.submit(mask, 16), check_error) << bad;
    EXPECT_TRUE(untouched()) << bad;
    EXPECT_THROW(server.try_submit(mask, 16), check_error) << bad;
    EXPECT_TRUE(untouched()) << bad;
    EXPECT_EQ(server.stats().submitted, 0u) << bad;
  }
  // A finite mask still goes through.
  Grid<double> ok = random_mask(32, 32, h.rng);
  const Grid<double> ok_copy = ok;
  EXPECT_EQ(server.submit(std::move(ok), 16).get(),
            h.expected(ok_copy, 16, RequestKind::kAerial));
  EXPECT_EQ(server.stats().submitted, 1u);
}

TEST(LithoServer, SwapKernelsRejectsNonFiniteSetAndKeepsGeneration) {
  // A NaN is never published: a NaN/Inf kernel set throws while its
  // FastLitho is built, before swap_kernels bumps the generation, and the
  // server keeps serving the old snapshot bit for bit.
  ServerHarness h(109);
  LithoServer server(h.make_litho());
  const std::uint64_t gen = server.generation();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<Grid<cd>> kernels = random_kernels(12, 9, h.rng);
    kernels[4](2, 6) = cd(bad, 0.5);
    EXPECT_THROW(server.swap_kernels(FastLitho(std::move(kernels))),
                 check_error)
        << bad;
    EXPECT_EQ(server.generation(), gen) << bad;
  }
  const Grid<double> mask = random_mask(32, 32, h.rng);
  EXPECT_EQ(server.submit(mask, 16).get(),
            h.expected(mask, 16, RequestKind::kAerial));
}

TEST(LithoServer, ExecuteTimeFailureResolvesFutureWithException) {
  ServerHarness h(108);  // kdim 9: a 4x4 mask cannot host the spectrum crop
  LithoServer server(h.make_litho());
  auto bad = server.submit(Grid<double>(4, 4, 1.0), 16);
  EXPECT_THROW(bad.get(), check_error);
  // The failure is contained: the worker survives and serves the next
  // request normally.
  Grid<double> good_mask = random_mask(32, 32, h.rng);
  auto good = server.submit(good_mask, 16);
  EXPECT_EQ(good.get(), h.expected(good_mask, 16, RequestKind::kAerial));
}

TEST(LithoServer, FreshServerReportsNoLatencySamples) {
  // Regression pin: an empty latency window used to report p50/p99 as
  // 0.0 µs, indistinguishable from a genuinely instant server.
  ServerHarness h(115);
  LithoServer server(h.make_litho());
  ShardStats st = server.stats();
  EXPECT_EQ(st.latency_samples, 0u);
  EXPECT_TRUE(std::isnan(st.p50_latency_us));
  EXPECT_TRUE(std::isnan(st.p99_latency_us));
  EXPECT_EQ(st.shed.goodput_rps, 0.0);
  st = server.shard_stats(0);
  EXPECT_EQ(st.latency_samples, 0u);
  EXPECT_TRUE(std::isnan(st.p99_latency_us));
  Grid<double> mask = random_mask(32, 32, h.rng);
  (void)server.submit(mask, 16).get();
  st = server.stats();
  EXPECT_EQ(st.latency_samples, 1u);
  EXPECT_FALSE(std::isnan(st.p50_latency_us));
  EXPECT_FALSE(std::isnan(st.p99_latency_us));
  EXPECT_GT(st.shed.goodput_rps, 0.0);
  EXPECT_GT(st.est_service_us, 0.0);
}

TEST(LithoServer, PercentileIndexIsNearestRankEvenForTinyWindows) {
  // Regression pin for the small-window p99 underestimate: the old
  // floor-style (99 * (n - 1)) / 100 returned the *minimum* of a 2-sample
  // window as its p99.  Nearest rank is ceil(p/100 * n) - 1.
  EXPECT_EQ(serve::percentile_index(1, 50), 0u);
  EXPECT_EQ(serve::percentile_index(1, 99), 0u);
  EXPECT_EQ(serve::percentile_index(2, 99), 1u);  // max, not min
  EXPECT_EQ(serve::percentile_index(3, 99), 2u);
  EXPECT_EQ(serve::percentile_index(100, 99), 98u);
  EXPECT_EQ(serve::percentile_index(101, 99), 99u);
  EXPECT_EQ(serve::percentile_index(200, 99), 197u);
  // p50 agrees with the old median for every window size.
  EXPECT_EQ(serve::percentile_index(2, 50), 0u);
  EXPECT_EQ(serve::percentile_index(3, 50), 1u);
  EXPECT_EQ(serve::percentile_index(4, 50), 1u);
  EXPECT_EQ(serve::percentile_index(5, 50), 2u);
  EXPECT_EQ(serve::percentile_index(100, 50), 49u);
  EXPECT_EQ(serve::percentile_index(100, 100), 99u);
  EXPECT_THROW(serve::percentile_index(0, 99), check_error);
  EXPECT_THROW(serve::percentile_index(10, 0), check_error);
}

TEST(LithoServer, TinyWindowP99ReportsTheSlowestSample) {
  // Two completed requests: p99 must be the slower one (the old floor
  // formula reported the faster).  Latencies are noisy, so assert the
  // ordering property rather than values: p99 >= p50 always, and with
  // n == 2 the p99 index is the maximum sample.
  ServerHarness h(116);
  LithoServer server(h.make_litho());
  for (int i = 0; i < 2; ++i) {
    Grid<double> mask = random_mask(32, 32, h.rng);
    (void)server.submit(std::move(mask), 16).get();
  }
  const ShardStats st = server.stats();
  ASSERT_EQ(st.latency_samples, 2u);
  EXPECT_GE(st.p99_latency_us, st.p50_latency_us);
}

TEST(LithoServer, ShedsAtSubmitWhenDeadlineIsHopeless) {
  // Per-request deadlines work without any SloPolicy installed: a
  // deadline already in the past is hopeless no matter the queue state.
  ServerHarness h(116);
  LithoServer server(h.make_litho());
  auto doomed =
      server.submit(random_mask(32, 32, h.rng), 16, RequestKind::kAerial,
                    Clock::now() - std::chrono::milliseconds(1));
  EXPECT_THROW(doomed.get(), serve::DeadlineExceeded);
  ShardStats st = server.stats();
  EXPECT_EQ(st.shed.shed_at_submit, 1u);
  EXPECT_EQ(st.submitted, 0u);  // shed requests never enter the queue
  // try_submit sheds the same way: an answered future, not nullopt (which
  // would read as retryable backpressure).
  Grid<double> m = random_mask(32, 32, h.rng);
  auto tfut = server.try_submit(m, 16, RequestKind::kAerial,
                                Clock::now() - std::chrono::milliseconds(1));
  ASSERT_TRUE(tfut.has_value());
  EXPECT_THROW(tfut->get(), serve::DeadlineExceeded);
  EXPECT_EQ(server.stats().shed.shed_at_submit, 2u);
  // A live deadline serves normally, bit-identically.
  Grid<double> mask = random_mask(32, 32, h.rng);
  auto ok = server.submit(mask, 16, RequestKind::kAerial,
                          Clock::now() + std::chrono::seconds(10));
  EXPECT_EQ(ok.get(), h.expected(mask, 16, RequestKind::kAerial));
}

TEST(LithoServer, EstimatedWaitShedsAtSubmitUnderBacklog) {
  // The estimate-driven admission point: with a backlog of N requests and
  // a measured per-request pace, a deadline shorter than the estimated
  // wait is rejected at submit.  The worker is wedged on the shared pool
  // so the backlog (and the estimate) are frozen while we probe.
  set_parallel_workers(2);
  ServerHarness h(117, /*rank=*/17, /*kdim=*/9);
  ServeOptions opts;
  opts.queue_capacity = 8;
  opts.batch.max_batch = 1;
  LithoServer server(h.make_litho(), opts);

  // Complete one request so the service-time EWMA is primed.
  {
    Grid<double> warm = random_mask(32, 32, h.rng);
    EXPECT_EQ(server.submit(warm, 16).get(),
              h.expected(warm, 16, RequestKind::kAerial));
  }
  const double est = server.shard_stats(0).est_service_us;
  ASSERT_GT(est, 0.0);

  std::latch pool_entered(2);
  std::latch release_pool(1);
  std::thread pool_hog([&] {
    parallel_for(2, [&](std::int64_t) {
      pool_entered.count_down();
      release_pool.wait();
    });
  });
  pool_entered.wait();

  struct Pending {
    Grid<double> mask;
    std::future<Grid<double>> fut;
  };
  std::vector<Pending> accepted;
  // Probe request: once popped (depth back to 0) the worker is committed
  // to an execute that cannot finish while the pool is held.
  {
    Grid<double> mask = random_mask(32, 32, h.rng);
    accepted.push_back({mask, server.submit(std::move(mask), 16)});
    while (server.shard_stats(0).queue_depth != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Backlog of 8 no-deadline requests (no SloPolicy: they can never shed).
  for (int i = 0; i < 8; ++i) {
    Grid<double> mask = random_mask(32, 32, h.rng);
    accepted.push_back({mask, server.submit(std::move(mask), 16)});
  }
  ASSERT_EQ(server.shard_stats(0).queue_depth, 8u);
  // Estimated wait is est * 8; a deadline of est * 4 from now is hopeless
  // (and would stay hopeless even for an estimate half as large).
  auto doomed = server.submit(
      random_mask(32, 32, h.rng), 16, RequestKind::kAerial,
      Clock::now() + std::chrono::microseconds(std::lround(est * 4)));
  EXPECT_THROW(doomed.get(), serve::DeadlineExceeded);
  EXPECT_EQ(server.shard_stats(0).shed.shed_at_submit, 1u);

  release_pool.count_down();
  pool_hog.join();
  // Every accepted (deadline-free) request still resolves bit-identically.
  for (auto& p : accepted) {
    EXPECT_EQ(p.fut.get(), h.expected(p.mask, 16, RequestKind::kAerial));
  }
  server.stop();
  const ShardStats st = server.stats();
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.shed.shed_in_queue, 0u);
  set_parallel_workers(0);
}

TEST(LithoServer, OverloadShedsExpireInQueueAndEveryFutureResolves) {
  // Overload shed test: requests that expire while queued resolve with
  // DeadlineExceeded — never silently, never dropped.
  set_parallel_workers(2);
  ServerHarness h(118, /*rank=*/17, /*kdim=*/9);
  ServeOptions opts;
  opts.queue_capacity = 8;
  opts.batch.max_batch = 1;
  serve::SloPolicy slo;
  slo.target_p99 = std::chrono::milliseconds(50);
  slo.max_queue_wait = std::chrono::milliseconds(25);
  opts.slo = slo;
  LithoServer server(h.make_litho(), opts);

  std::latch pool_entered(2);
  std::latch release_pool(1);
  std::thread pool_hog([&] {
    parallel_for(2, [&](std::int64_t) {
      pool_entered.count_down();
      release_pool.wait();
    });
  });
  pool_entered.wait();

  // Probe commits the worker to a pool-wedged execute; the EWMA is still 0
  // (no batch has completed), so the queue fills without submit sheds.
  Grid<double> probe_mask = random_mask(32, 32, h.rng);
  Grid<double> probe_copy = probe_mask;
  auto probe = server.submit(std::move(probe_mask), 16);
  while (server.shard_stats(0).queue_depth != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::future<Grid<double>>> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(server.submit(random_mask(32, 32, h.rng), 16));
  }
  // Let every queued deadline (submit + 25 ms) expire, then unwedge.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  release_pool.count_down();
  pool_hog.join();

  EXPECT_EQ(probe.get(), h.expected(probe_copy, 16, RequestKind::kAerial));
  for (auto& f : queued) {
    EXPECT_THROW(f.get(), serve::DeadlineExceeded);
  }
  server.stop();
  const ShardStats st = server.stats();
  EXPECT_EQ(st.shed.shed_in_queue, 4u);
  EXPECT_EQ(st.completed, st.submitted);  // sheds are completions too
  EXPECT_EQ(st.latency_samples, 1u);      // only the probe was served
  set_parallel_workers(0);
}

TEST(LithoServer, SloWithAutotuneServesBitIdenticalAcceptedResults) {
  // The acceptance-criterion pin: with admission control and the
  // autotuner on, every accepted result equals the direct synchronous
  // call bit for bit, even as the tuner hot-swaps (max_batch, max_delay)
  // mid-stream.
  ServerHarness h(119);
  ServeOptions opts;
  opts.shards = 2;
  opts.queue_capacity = 32;
  opts.batch.max_batch = 4;
  opts.batch.max_delay = std::chrono::microseconds(200);
  serve::SloPolicy slo;
  slo.target_p99 = std::chrono::milliseconds(5);
  slo.max_queue_wait = std::chrono::seconds(10);  // nothing sheds
  slo.autotune = true;
  slo.tuner.tune_every = 8;  // force frequent decisions
  opts.slo = slo;
  LithoServer server(h.make_litho(), opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  const int out_pxs[] = {16, 20, 33};
  struct Expect {
    Grid<double> mask;
    int out_px;
    RequestKind kind;
    std::future<Grid<double>> fut;
  };
  std::vector<std::vector<Expect>> per_client(kClients);
  std::vector<std::vector<Grid<double>>> masks(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      masks[static_cast<std::size_t>(c)].push_back(random_mask(32, 32, h.rng));
    }
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = per_client[static_cast<std::size_t>(c)];
      for (int i = 0; i < kPerClient; ++i) {
        Expect e;
        e.mask = masks[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
        e.out_px = out_pxs[(c + i) % 3];
        e.kind = ((c + i) % 4 == 0) ? RequestKind::kResist
                                    : RequestKind::kAerial;
        e.fut = server.submit(e.mask, e.out_px, e.kind);
        mine.push_back(std::move(e));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (auto& e : per_client[static_cast<std::size_t>(c)]) {
      EXPECT_EQ(e.fut.get(), h.expected(e.mask, e.out_px, e.kind))
          << "client " << c << " out_px " << e.out_px;
    }
  }
  const ShardStats total = server.stats();
  EXPECT_EQ(total.submitted,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(total.completed, total.submitted);
  EXPECT_EQ(total.shed.shed_at_submit, 0u);
  EXPECT_EQ(total.shed.shed_in_queue, 0u);
  EXPECT_GE(total.max_batch, 1);
  EXPECT_GT(total.max_delay_us, 0.0);
  server.stop();
}

TEST(LithoServer, SwapSloHotSwapsAdmissionControl) {
  ServerHarness h(120);
  ServeOptions opts;
  opts.batch.max_batch = 1;
  LithoServer server(h.make_litho(), opts);
  EXPECT_EQ(server.slo(), nullptr);
  // No policy: no default deadline, requests serve no matter how long the
  // queue wait was.
  Grid<double> before = random_mask(32, 32, h.rng);
  EXPECT_EQ(server.submit(before, 16).get(),
            h.expected(before, 16, RequestKind::kAerial));

  // Swap a zero-wait policy in: the default deadline is the submit
  // instant, so dequeue (strictly later) sheds.
  serve::SloPolicy strict;
  strict.max_queue_wait = std::chrono::microseconds(0);
  server.swap_slo(strict);
  ASSERT_NE(server.slo(), nullptr);
  EXPECT_EQ(server.slo()->max_queue_wait.count(), 0);
  auto shed = server.submit(random_mask(32, 32, h.rng), 16);
  EXPECT_THROW(shed.get(), serve::DeadlineExceeded);
  EXPECT_GE(server.stats().shed.shed_in_queue, 1u);

  // Swap back out: requests are deadline-free again.
  server.swap_slo(std::nullopt);
  EXPECT_EQ(server.slo(), nullptr);
  Grid<double> after = random_mask(32, 32, h.rng);
  EXPECT_EQ(server.submit(after, 16).get(),
            h.expected(after, 16, RequestKind::kAerial));
}

TEST(LithoServer, OutPxAffinityRoutesStably) {
  ServerHarness h(109);
  ServeOptions opts;
  opts.shards = 3;
  LithoServer server(h.make_litho(), opts);
  const int s16 = server.shard_of(16);
  EXPECT_EQ(server.shard_of(16), s16);  // deterministic
  EXPECT_GE(s16, 0);
  EXPECT_LT(s16, 3);
  // Every shard snapshot shares one kernel vector (no copies).
  EXPECT_EQ(server.snapshot(0)->kernels_shared().get(),
            server.snapshot(2)->kernels_shared().get());
}

}  // namespace
}  // namespace nitho
