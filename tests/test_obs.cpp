// Tests for src/obs/: the metrics registry (counters / gauges / log-bucket
// histograms), the span tracer, and the exporters (DESIGN.md §12).
//
// The load-bearing claims pinned here:
//   * bucket edges are exact — an edge value starts its own bucket — and
//     quantile estimates stay within the documented 1/(2·kSub) relative
//     error of the true nearest-rank sample;
//   * concurrent record()/inc() never tear a snapshot (sum of bucket
//     counts can only run ahead of the total, never behind);
//   * trace rings overwrite oldest-first, count their drops, and the
//     Chrome trace_event exporter emits schema-valid JSON (the end-to-end
//     parse check lives in tests/validate_trace.py).
//
// This suite also runs under the `tsan` preset.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nitho {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::HistogramSnapshot;
using obs::LogHistogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceConfig;
using obs::TraceEvent;
using obs::Tracer;

// ---------------------------------------------------------------------------
// nearest_rank_index: the rank rule of histogram quantiles, hence of the
// serving layer's p50/p99.
// ---------------------------------------------------------------------------

TEST(NearestRank, MatchesCeilDefinition) {
  // ceil(p/100 * n) - 1, pinned against the float formula across a sweep.
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{64}, std::size_t{100}, std::size_t{4096}}) {
    for (int p : {1, 25, 50, 90, 99, 100}) {
      const auto expect = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(n))) - 1;
      EXPECT_EQ(obs::nearest_rank_index(n, p), expect) << "n=" << n << " p=" << p;
    }
  }
  // The pins the serving layer has always relied on.  The old floor-style
  // (99 * (n - 1)) / 100 ranked a 2-sample p99 at the minimum; nearest
  // rank takes the maximum, and p50 agrees with the old median.
  EXPECT_EQ(obs::nearest_rank_index(1, 50), 0u);
  EXPECT_EQ(obs::nearest_rank_index(1, 99), 0u);
  EXPECT_EQ(obs::nearest_rank_index(2, 99), 1u);
  EXPECT_EQ(obs::nearest_rank_index(3, 99), 2u);
  EXPECT_EQ(obs::nearest_rank_index(101, 99), 99u);
  EXPECT_EQ(obs::nearest_rank_index(200, 99), 197u);
  EXPECT_EQ(obs::nearest_rank_index(3, 50), 1u);
  EXPECT_EQ(obs::nearest_rank_index(4, 50), 1u);
  EXPECT_EQ(obs::nearest_rank_index(5, 50), 2u);
  EXPECT_EQ(obs::nearest_rank_index(100, 50), 49u);
  EXPECT_EQ(obs::nearest_rank_index(100, 99), 98u);
  EXPECT_EQ(obs::nearest_rank_index(4096, 99), 4055u);
}

TEST(NearestRank, RejectsDegenerateInputs) {
  EXPECT_THROW(obs::nearest_rank_index(0, 50), check_error);
  EXPECT_THROW(obs::nearest_rank_index(10, 0), check_error);
  EXPECT_THROW(obs::nearest_rank_index(10, 101), check_error);
}

// ---------------------------------------------------------------------------
// LogHistogram bucket geometry.
// ---------------------------------------------------------------------------

TEST(LogHistogram, BucketEdgesAreExact) {
  // Every bucket's inclusive lower edge maps to that bucket, buckets tile
  // the range ([upper of i] == [lower of i+1]), and the value just below
  // the upper edge still belongs to bucket i.
  for (int i = 0; i < LogHistogram::kBuckets; ++i) {
    const double lo = LogHistogram::bucket_lower(i);
    const double hi = LogHistogram::bucket_upper(i);
    ASSERT_LT(lo, hi);
    EXPECT_EQ(LogHistogram::bucket_index(lo), i) << "lower edge of " << i;
    const double just_below = std::nextafter(hi, lo);
    EXPECT_EQ(LogHistogram::bucket_index(just_below), i)
        << "below upper edge of " << i;
    if (i + 1 < LogHistogram::kBuckets) {
      EXPECT_DOUBLE_EQ(hi, LogHistogram::bucket_lower(i + 1));
      EXPECT_EQ(LogHistogram::bucket_index(hi), i + 1) << "upper edge of " << i;
    }
  }
}

TEST(LogHistogram, BucketWidthBoundsRelativeError) {
  // Width of every bucket is at most 1/kSub of its lower edge — the fact
  // the 1/(2·kSub) quantile error bound rests on.
  for (int i = 0; i < LogHistogram::kBuckets; ++i) {
    const double lo = LogHistogram::bucket_lower(i);
    const double width = LogHistogram::bucket_upper(i) - lo;
    EXPECT_LE(width / lo, 1.0 / LogHistogram::kSub + 1e-12) << "bucket " << i;
  }
}

TEST(LogHistogram, TailsClampButCount) {
  EXPECT_EQ(LogHistogram::bucket_index(0.0), 0);
  EXPECT_EQ(LogHistogram::bucket_index(-3.5), 0);
  EXPECT_EQ(LogHistogram::bucket_index(std::nan("")), 0);
  // Below the bottom edge (2^kMinExp) clamps down, past the top clamps up.
  EXPECT_EQ(LogHistogram::bucket_index(std::ldexp(1.0, LogHistogram::kMinExp - 2)),
            0);
  EXPECT_EQ(LogHistogram::bucket_index(1e300), LogHistogram::kBuckets - 1);

  LogHistogram h;
  h.record(-1.0);
  h.record(std::nan(""));
  h.record(1e300);
  EXPECT_EQ(h.count(), 3u);  // tails are counted, never dropped
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts.front(), 2u);
  EXPECT_EQ(s.counts.back(), 1u);
}

// ---------------------------------------------------------------------------
// Quantiles: exactness of rank, boundedness of value.
// ---------------------------------------------------------------------------

TEST(LogHistogram, QuantileMatchesExactRankWithinBound) {
  // Deterministic log-uniform samples over ~6 decades: the regime the
  // latency histogram actually sees (tens of us to seconds).
  Rng rng(1234);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(std::exp(rng.uniform(std::log(10.0), std::log(3.0e6))));
  }
  LogHistogram h;
  for (const double v : samples) h.record(v);
  std::sort(samples.begin(), samples.end());

  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, samples.size());
  const double bound = 1.0 / (2.0 * LogHistogram::kSub);  // documented: 3.125%
  for (const int p : {1, 10, 25, 50, 75, 90, 99, 100}) {
    const double exact = samples[obs::nearest_rank_index(samples.size(), p)];
    const double est = s.quantile(p);
    EXPECT_LE(std::abs(est - exact) / exact, bound + 1e-9)
        << "p" << p << " exact=" << exact << " est=" << est;
  }
}

TEST(LogHistogram, QuantileDegenerateCases) {
  LogHistogram h;
  EXPECT_TRUE(std::isnan(h.snapshot().quantile(50)));
  EXPECT_TRUE(std::isnan(h.snapshot().mean()));
  h.record(42.0);
  const HistogramSnapshot s = h.snapshot();
  // One sample: every percentile is that sample's bucket midpoint.
  const int b = LogHistogram::bucket_index(42.0);
  const double mid =
      0.5 * (LogHistogram::bucket_lower(b) + LogHistogram::bucket_upper(b));
  EXPECT_DOUBLE_EQ(s.quantile(1), mid);
  EXPECT_DOUBLE_EQ(s.quantile(99), mid);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(HistogramSnapshot, MergeEqualsCombinedRecording) {
  Rng rng(77);
  LogHistogram a, b, both;
  for (int i = 0; i < 500; ++i) {
    const double v = std::exp(rng.uniform(0.0, 10.0));
    ((i % 2 == 0) ? a : b).record(v);
    both.record(v);
  }
  HistogramSnapshot merged = a.snapshot();
  merged += b.snapshot();
  const HistogramSnapshot expect = both.snapshot();
  EXPECT_EQ(merged.count, expect.count);
  EXPECT_DOUBLE_EQ(merged.sum, expect.sum);
  EXPECT_EQ(merged.counts, expect.counts);
  EXPECT_DOUBLE_EQ(merged.quantile(99), expect.quantile(99));
}

// ---------------------------------------------------------------------------
// Concurrency: snapshots taken mid-flight are never torn.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ConcurrentRecordsNeverTearSnapshots) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.events");
  LogHistogram& h = reg.histogram("test.latency");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<double>(1 + (i + static_cast<std::uint64_t>(t)) % 1000));
      }
    });
  }
  go.store(true, std::memory_order_release);

  // record() bumps the bucket before the total, so any snapshot must see
  // at least as many bucketed values as its total claims.
  std::uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const HistogramSnapshot s = h.snapshot();
    std::uint64_t bucketed = 0;
    for (const std::uint64_t n : s.counts) bucketed += n;
    EXPECT_GE(bucketed, s.count);
    EXPECT_GE(s.count, last_count);  // totals are monotone
    last_count = s.count;
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t n : s.counts) bucketed += n;
  EXPECT_EQ(bucketed, s.count);
}

TEST(MetricsRegistry, GetOrCreateAndKindClash) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  a.inc(3);
  EXPECT_EQ(&reg.counter("x.count"), &a);  // same name, same metric
  EXPECT_EQ(reg.counter("x.count").value(), 3u);
  EXPECT_THROW(reg.gauge("x.count"), check_error);      // kind clash
  EXPECT_THROW(reg.histogram("x.count"), check_error);  // kind clash
  reg.gauge("x.depth").set(7.5);
  EXPECT_EQ(reg.size(), 2u);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  // Name-sorted, and find() resolves by name.
  EXPECT_EQ(snap.metrics[0].name, "x.count");
  EXPECT_EQ(snap.metrics[1].name, "x.depth");
  ASSERT_NE(snap.find("x.depth"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("x.depth")->value, 7.5);
  EXPECT_EQ(snap.find("no.such"), nullptr);
}

TEST(Gauge, ConcurrentAddsNeverLoseUpdates) {
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// Tracer: sampling, ring overflow, ordering.
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledIsInert) {
  TraceConfig cfg;  // enabled == false by default
  Tracer t(cfg, 2);
  EXPECT_FALSE(t.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(t.sample());
  t.record({"x", "test", 1, 0, 0, 1});
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, SamplingAdmitsFirstAndEveryNth) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 4;
  Tracer t(cfg, 1);
  int admitted = 0;
  for (int i = 0; i < 16; ++i) {
    const bool s = t.sample();
    if (i % 4 == 0) {
      EXPECT_TRUE(s) << "call " << i;
    }
    admitted += s ? 1 : 0;
  }
  EXPECT_EQ(admitted, 4);
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 8;
  Tracer t(cfg, 1);
  for (std::uint64_t i = 0; i < 20; ++i) {
    t.record({"span", "test", i, 0, static_cast<std::int64_t>(i), 1});
  }
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  // The retained spans are the 8 newest, oldest-first.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].id, 12 + i);
    EXPECT_EQ(evs[i].start_us, static_cast<std::int64_t>(12 + i));
  }
}

TEST(Tracer, EventsSortedByStartAcrossTracksStably) {
  TraceConfig cfg;
  cfg.enabled = true;
  Tracer t(cfg, 3);
  t.record({"late", "test", 1, 2, 100, 5});
  t.record({"parent", "test", 2, 0, 10, 50});  // recorded before child...
  t.record({"child", "test", 2, 0, 10, 20});   // ...same start: stays after
  t.record({"early", "test", 3, 1, 1, 2});
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_STREQ(evs[0].name, "early");
  EXPECT_STREQ(evs[1].name, "parent");  // stable: parent precedes child
  EXPECT_STREQ(evs[2].name, "child");
  EXPECT_STREQ(evs[3].name, "late");
}

TEST(Tracer, RejectsDegenerateConfig) {
  TraceConfig cfg;
  cfg.sample_every = 0;
  EXPECT_THROW(Tracer(cfg, 1), check_error);
  cfg.sample_every = 1;
  cfg.ring_capacity = 0;
  EXPECT_THROW(Tracer(cfg, 1), check_error);
  cfg.ring_capacity = 1;
  EXPECT_THROW(Tracer(cfg, 0), check_error);
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(Export, ChromeTraceJsonSchema) {
  TraceConfig cfg;
  cfg.enabled = true;
  Tracer t(cfg, 2);
  t.record({"compute", "serve", 7, 1, 100, 250});
  t.record({"with\"quote\nand\ttab", "test", 8, 0, 400, 10});

  std::ostringstream os;
  obs::write_chrome_trace(os, t);
  const std::string json = os.str();

  // Structural pins of the trace_event "JSON object format".
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compute\",\"cat\":\"serve\",\"ph\":\"X\","
                      "\"ts\":100,\"dur\":250,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":7}"),
            std::string::npos);
  // Control characters and quotes in names come out escaped.
  EXPECT_NE(json.find("with\\\"quote\\nand\\ttab"), std::string::npos);
  // Balanced braces — cheap well-formedness check (full JSON parsing is
  // validate_trace.py's job).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Export, MultiTracerAssignsProcessIds) {
  TraceConfig cfg;
  cfg.enabled = true;
  Tracer a(cfg, 1), b(cfg, 1);
  a.record({"sa", "x", 1, 0, 5, 1});
  b.record({"sb", "y", 2, 0, 6, 1});
  std::ostringstream os;
  obs::write_chrome_trace(os, {&a, nullptr, &b});  // nulls are skipped
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"sa\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sb\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);  // index 2 -> pid 3
  EXPECT_EQ(json.find("\"pid\":2"), std::string::npos);
}

TEST(Export, MetricsTextAndCsv) {
  MetricsRegistry reg;
  reg.counter("a.count").inc(5);
  reg.gauge("b.depth").set(2.5);
  reg.histogram("c.lat").record(100.0);
  const MetricsSnapshot snap = reg.snapshot();

  std::ostringstream text;
  obs::write_metrics_text(text, snap);
  EXPECT_NE(text.str().find("a.count counter 5\n"), std::string::npos);
  EXPECT_NE(text.str().find("b.depth gauge 2.5\n"), std::string::npos);
  EXPECT_NE(text.str().find("c.lat hist count=1"), std::string::npos);

  std::ostringstream csv;
  obs::write_metrics_csv(csv, snap);
  EXPECT_EQ(csv.str().rfind("name,kind,value,count,mean,p50,p99\n", 0), 0u);
  EXPECT_NE(csv.str().find("a.count,counter,5,,,,\n"), std::string::npos);
  EXPECT_NE(csv.str().find("b.depth,gauge,2.5,,,,\n"), std::string::npos);
  EXPECT_NE(csv.str().find("c.lat,hist,,1,100,"), std::string::npos);
}

TEST(Export, TraceFileRoundTrips) {
  TraceConfig cfg;
  cfg.enabled = true;
  Tracer t(cfg, 1);
  t.record({"s", "x", 1, 0, 1, 1});
  const std::string path = ::testing::TempDir() + "obs_trace_roundtrip.json";
  obs::write_chrome_trace_file(path, t);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  std::ostringstream direct;
  obs::write_chrome_trace(direct, t);
  EXPECT_EQ(ss.str(), direct.str());
  EXPECT_THROW(obs::write_chrome_trace_file("/no/such/dir/t.json", t),
               check_error);
}

}  // namespace
}  // namespace nitho
