#pragma once
// Observability core: a registry of named counters, gauges and log-bucket
// histograms shared by the serving, training, OPC and rollout subsystems
// (DESIGN.md §12).
//
// Design constraints, in order:
//   * Hot paths pay one atomic RMW per event (release for Counter::inc,
//     relaxed elsewhere).  Counter::inc, Gauge::set/add and
//     LogHistogram::record never take a lock; callers
//     hold references obtained once at setup time, so the registry's name
//     table is never touched per event.
//   * Reads never block writers.  snapshot() copies atomics without a
//     lock against writers; the registration mutex it takes is only ever
//     contended by other registrations and snapshots, not by metric
//     updates.  A snapshot is therefore *per-metric* atomic but not a
//     consistent cut across metrics (a counter read early may lag one read
//     late).  Readers that need an order between two counters load them
//     in the order their writers' happens-before edges allow (ShardStats).
//   * Histograms are fixed-size arrays of buckets whose width grows
//     geometrically, so quantile estimates carry a bounded *relative*
//     error (≤ 1/(2·kSub), see LogHistogram) instead of the unbounded
//     absolute error of fixed-width buckets — and reading a quantile is
//     O(buckets), not O(samples·log samples) like the sort-the-window
//     path the serving stats used before.
//
// Metric names are dot-separated lowercase paths ("serve.shard0.
// latency_us").  Registration is get-or-create: asking twice for the same
// name returns the same metric; asking for an existing name as a
// different kind throws check_error.  References returned by the registry
// stay valid for the registry's lifetime (metrics are never deleted).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"

namespace nitho::obs {

/// Nearest-rank index into a sorted sample of size n (>= 1), in integer
/// arithmetic: ceil(percent/100 * n) - 1.  The ceil keeps tiny samples
/// honest (n == 2 ranks p99 at the maximum, not the minimum).  This is
/// the rank rule of HistogramSnapshot::quantile, hence of the serving
/// layer's p50/p99.
std::size_t nearest_rank_index(std::size_t n, int percent);

/// Monotone event count.  Writers call inc(); readers call value().
/// Increments are release RMWs and reads acquire, so a reader that sees a
/// count also sees everything its writer did before that increment —
/// including increments of other counters.  That is what lets one counter
/// bound another for readers (the serving shards' completed <= submitted,
/// DESIGN.md §12.1).  On x86 both compile to the relaxed instructions.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_release); }
  std::uint64_t value() const { return v_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-writer-wins instantaneous value (queue depth, loss, iteration).
/// add() is a CAS loop so concurrent adders never lose an update.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Read-side copy of a LogHistogram (or a merge of several — operator+=),
/// with quantile/mean derived from the bucket counts.
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  ///< size LogHistogram::kBuckets
  std::uint64_t count = 0;            ///< total recorded values
  double sum = 0.0;                   ///< sum of recorded values

  /// Nearest-rank quantile estimate: the midpoint of the bucket holding
  /// sample rank nearest_rank_index(count, percent).  For values inside
  /// the histogram's range the estimate is within a relative error of
  /// 1/(2·LogHistogram::kSub) of the true sample at that rank (DESIGN.md
  /// §12.2 derives the bound); values clamped into the bottom or top
  /// bucket carry no bound.  NaN while count == 0.
  double quantile(int percent) const;
  double mean() const;  ///< NaN while count == 0

  /// Merges another snapshot bucket-wise (the all-shard aggregate).
  HistogramSnapshot& operator+=(const HistogramSnapshot& other);
};

/// Fixed-size log-scale bucket histogram: kSub linear subbuckets per
/// power-of-two octave (HdrHistogram's scheme), spanning
/// [2^kMinExp, 2^(kMinExp + kOctaves)).  Bucket i covers
///   [2^e · (1 + s/kSub), 2^e · (1 + (s+1)/kSub))   e = kMinExp + i/kSub,
///                                                  s = i % kSub,
/// so every bucket's width is at most 1/kSub of its lower edge and a
/// quantile reported as the bucket midpoint is within 1/(2·kSub) ≈ 3.1%
/// relative error of the true ranked sample.  Values at or below zero
/// (and NaN) clamp into bucket 0; values past the top clamp into the last
/// bucket — both tails are counted, never dropped, but carry no error
/// bound.  record() is one relaxed fetch_add per value plus the count/sum
/// updates; there is no lock anywhere.
class LogHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;  ///< 16 subbuckets per octave
  static constexpr int kMinExp = -10;         ///< lowest edge 2^-10 ≈ 1e-3
  static constexpr int kOctaves = 42;         ///< top edge 2^32 ≈ 4.3e9
  static constexpr int kBuckets = kOctaves * kSub;

  void record(double v);

  /// The bucket a value lands in (clamped into [0, kBuckets - 1]); exact
  /// on bucket edges — an edge value starts its own bucket.
  static int bucket_index(double v);
  /// Inclusive lower / exclusive upper edge of bucket i.
  static double bucket_lower(int i);
  static double bucket_upper(int i);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric in a MetricsSnapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;       ///< counter / gauge value (0 for histograms)
  HistogramSnapshot hist;   ///< populated for histograms only
};

/// Point-in-time copy of a registry, name-sorted (the export layer in
/// obs/export.hpp renders it as text or CSV).
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;
  const MetricValue* find(const std::string& name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create.  The returned reference is valid for the registry's
  /// lifetime; a kind clash with an existing name throws check_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LogHistogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  std::size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> hist;
  };
  Entry& entry(const std::string& name, MetricKind kind);

  /// Guards the name table only — metric *values* are atomics updated
  /// lock-free through the references entry() hands out.
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ NITHO_GUARDED_BY(mu_);
};

}  // namespace nitho::obs
