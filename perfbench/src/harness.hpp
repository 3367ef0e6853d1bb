#pragma once
// Shared plumbing of the repository benchmark: run arguments, the result
// record every workload fills, sample statistics, the per-layer ledger and
// the one-line JSON report.  Everything here is benchmark-side; the library
// under test is only ever reached through its public headers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "nitho/model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the benchmark's own smoke tests.
  bool tiny = false;
};

/// Sample statistics.  Percentiles of latency samples are nearest-rank
/// (ceil(p * n) - 1), the rule the server's own stats use; quartiles of
/// traced repeats interpolate linearly between order statistics.
double percentile(std::vector<double> v, double p);
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// One emitted metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One ledger row of the traced run: a per-layer metric sampled once per
/// traced repeat, with its share of the operation's time where it is a
/// time inside the operation.
struct LedgerRow {
  std::string name;
  std::string unit;
  std::vector<double> samples;  ///< one value per traced repeat
  std::vector<double> share;    ///< % of the op time, per repeat (may be empty)
  std::string note;
};

/// What a workload hands back to main(): the counts of checked operations
/// and the metrics of its mode (end-to-end, or the traced ledger).
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<LedgerRow> ledger;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(std::int64_t n = 1) { failed += n; }
};

/// The end-to-end metrics every workload reports, from its timed phase.
struct TimedPhase {
  std::vector<double> latency_ms;  ///< one sample per timed unit
  /// (seconds into the timed phase, operations completed and checked) at
  /// each completion, for the windowed throughput.
  std::vector<std::pair<double, double>> completions;
  double wall_s = 0.0;             ///< length of the timed phase

  void done(double at_s, double ops) { completions.emplace_back(at_s, ops); }
};
void add_end_to_end(Result& r, const TimedPhase& t,
                    const std::vector<double>& setup_s, double psnr_db,
                    double epe_px);

/// Appends one repeat's sample to a ledger row (created on first use).
/// `share_pct` is the value's share of the operation's time, or NaN when
/// the row is not a time inside the operation.
void ledger_add(Result& r, const std::string& name, const std::string& unit,
                double value, double share_pct, const std::string& note = "");

/// Adds `probe`'s ledger rows that `r` lacks (marked as measured by a tiny
/// run of workload `owner`) and its operation counts.
void adopt_missing_rows(Result& r, const Result& probe,
                        const std::string& owner);

/// Emits every per-layer metric (each row's median over repeats).
void ledger_to_metrics(Result& r);

/// Times `op` back to back for about `seconds` and at least `min_count`
/// calls; returns the per-call milliseconds.
std::vector<double> time_block(double seconds, int min_count,
                               const std::function<void()>& op);

/// The traced run's repeat loop shared by imaging, train and opc.  Each of
/// `repeats` rounds times `op` in blocks at 1, 2 and 4 pool workers (the
/// thread sweep), then runs `traced` — the op plus the calls into each
/// layer, which returns the op's own milliseconds — at the end-to-end
/// budget of `budget_workers`.
/// `collect(op_ms)` closes the round: the workload turns its layer timings
/// (means over the round) into ledger rows with shares of the mean traced
/// op time `op_ms`.  The loop
/// itself adds parallel.speedup_2w/4w and obs.trace_overhead_pct.
void traced_repeats(Result& r, double block_s, int repeats, int min_ops,
                    int budget_workers, const std::function<void()>& op,
                    const std::function<double()>& traced,
                    const std::function<void(double op_ms)>& collect);

/// Runs `setup` `count` times, timing each, and returns the durations.
/// Each call must build everything from scratch (the previous instance is
/// destroyed first), so the median is a set-up a fresh user would pay.
std::vector<double> time_setups(int count, const std::function<void()>& setup);

/// Prints the human-readable ledger and the final JSON line.
void report(const Args& args, const Result& r);

/// The Table-I size point (RFF 96 features, hidden 48, 2 blocks, rank 24)
/// with its default initialization seed.  The model is part of the system
/// under test, not of the input, so the run seed does not change it.
nitho::NithoConfig table1_model_config();

/// Workload entry points.
Result run_imaging(const Args& args);
Result run_serve(const Args& args);
Result run_train(const Args& args);
Result run_opc(const Args& args);

}  // namespace perfbench
