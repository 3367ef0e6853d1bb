#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <utility>

#include "common/parallel.hpp"

namespace perfbench {

namespace {

/// The per-layer metrics of the traced run, in ledger order.  Every traced
/// run emits all of them.
const std::vector<std::pair<const char*, const char*>>& per_layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"fft.crop_ms", "ms"},
      {"fft.crop_gflops", "GFLOP/s"},
      {"litho.engine_ms", "ms"},
      {"litho.engine_gflops", "GFLOP/s"},
      {"litho.resist_ms", "ms"},
      {"nitho.fast_litho_ms", "ms"},
      {"optics.setup_s", "s"},
      {"litho.dataset_s", "s"},
      {"serve.submit_us", "us"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.batch_assembly_ms", "ms"},
      {"serve.compute_ms", "ms"},
      {"serve.resolve_ms", "ms"},
      {"serve.batch_occupancy", "req/batch"},
      {"serve.batches", "count"},
      {"serve.direct_ms_per_req", "ms"},
      {"serve.overhead_pct", "%"},
      {"nitho.predict_kernels_ms", "ms"},
      {"nitho.cmlp_gflops", "GFLOP/s"},
      {"nn.socs_field_batch_ms", "ms"},
      {"train.forward_ms", "ms"},
      {"train.backward_ms", "ms"},
      {"train.opt_ms", "ms"},
      {"opc.step_ms", "ms"},
      {"opc.forward_ms", "ms"},
      {"nn.fft2c_crop_batch_ms", "ms"},
      {"nn.socs_from_spectrum_batch_ms", "ms"},
      {"nn.adam_ms", "ms"},
      {"parallel.speedup_2w", "x"},
      {"parallel.speedup_4w", "x"},
      {"unattributed_pct", "%"},
      {"obs.trace_overhead_pct", "%"},
  };
  return units;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[i];
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void add_end_to_end(Result& r, const TimedPhase& t,
                    const std::vector<double>& setup_s, double psnr_db,
                    double epe_px) {
  // Throughput is the median over ten equal windows of the timed phase, so
  // a burst of contention from other tenants moves one window, not the
  // figure.
  constexpr int kWindows = 10;
  std::vector<double> per_window(kWindows, 0.0);
  for (const auto& [at, ops] : t.completions) {
    const int w = std::min(kWindows - 1,
                           static_cast<int>(at / t.wall_s * kWindows));
    per_window[static_cast<std::size_t>(std::max(0, w))] += ops;
  }
  for (double& w : per_window) w /= t.wall_s / kWindows;
  r.add("throughput", median(per_window), "op/s");
  const auto [lo, hi] = std::minmax_element(per_window.begin(), per_window.end());
  // Latency percentiles: the median over consecutive segments of the timed
  // phase (an odd count up to five, each of at least 100 samples so its p90
  // keeps 10 beyond it) of each segment's nearest-rank percentile, so a
  // slow spell in one segment does not move the figure.
  const std::size_t n = t.latency_ms.size();
  std::size_t segments = std::min<std::size_t>(5, n / 100);
  if (segments % 2 == 0) segments = segments == 0 ? 1 : segments - 1;
  std::vector<double> p50, p90;
  for (std::size_t k = 0; k < segments; ++k) {
    const std::vector<double> seg(
        t.latency_ms.begin() + static_cast<std::ptrdiff_t>(k * n / segments),
        t.latency_ms.begin() +
            static_cast<std::ptrdiff_t>((k + 1) * n / segments));
    p50.push_back(percentile(seg, 0.50));
    p90.push_back(percentile(seg, 0.90));
  }
  r.add("latency_p50_ms", median(p50), "ms");
  r.add("latency_p90_ms", median(p90), "ms");
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("psnr_db", psnr_db, "dB");
  r.add("epe_px", epe_px, "px");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "latency samples %zu in %zu segments; %d set-ups; "
                "throughput windows %.4g..%.4g op/s",
                n, segments, static_cast<int>(setup_s.size()), *lo, *hi);
  r.notes.emplace_back(buf);
}

void ledger_add(Result& r, const std::string& name, const std::string& unit,
                double value, double share_pct, const std::string& note) {
  LedgerRow* row = nullptr;
  for (LedgerRow& l : r.ledger) {
    if (l.name == name) row = &l;
  }
  if (!row) {
    r.ledger.push_back({name, unit, {}, {}, note});
    row = &r.ledger.back();
  }
  row->samples.push_back(value);
  if (!std::isnan(share_pct)) row->share.push_back(share_pct);
}

std::vector<double> time_block(double seconds, int min_count,
                               const std::function<void()>& op) {
  std::vector<double> ms;
  const auto t0 = Clock::now();
  while (static_cast<int>(ms.size()) < min_count ||
         seconds_since(t0) < seconds) {
    const auto t = Clock::now();
    op();
    ms.push_back(ms_since(t));
  }
  return ms;
}

void traced_repeats(Result& r, double block_s, int repeats, int min_ops,
                    int budget_workers, const std::function<void()>& op,
                    const std::function<double()>& traced,
                    const std::function<void(double op_ms)>& collect) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (int rep = 0; rep < repeats; ++rep) {
    double per_workers[3] = {0, 0, 0};
    const int workers[3] = {1, 2, 4};
    for (int w = 0; w < 3; ++w) {
      nitho::set_parallel_workers(workers[w]);
      op();  // warm the workspaces a new worker count leases
      per_workers[w] = median(time_block(block_s, min_ops, op));
    }
    nitho::set_parallel_workers(budget_workers);
    std::vector<double> traced_ms;
    const auto t0 = Clock::now();
    while (static_cast<int>(traced_ms.size()) < min_ops ||
           seconds_since(t0) < block_s) {
      traced_ms.push_back(traced());
    }
    const double op_ms = median(traced_ms);
    ledger_add(r, "parallel.speedup_2w", "x", per_workers[0] / per_workers[1],
               kNaN, "op time at 1 worker / at 2");
    ledger_add(r, "parallel.speedup_4w", "x", per_workers[0] / per_workers[2],
               kNaN, "op time at 1 worker / at 4");
    const double untraced = per_workers[budget_workers == 1 ? 0 : 1];
    ledger_add(r, "obs.trace_overhead_pct", "%",
               100.0 * (op_ms - untraced) / untraced, kNaN,
               "median op time, traced vs untraced block");
    collect(mean(traced_ms));
  }
}

void adopt_missing_rows(Result& r, const Result& probe,
                        const std::string& owner) {
  r.attempted += probe.attempted;
  r.failed += probe.failed;
  for (const LedgerRow& row : probe.ledger) {
    bool present = false;
    for (const LedgerRow& l : r.ledger) present |= l.name == row.name;
    if (present) continue;
    r.ledger.push_back(row);
    r.ledger.back().note = "probe: tiny " + owner + " run; " + row.note;
  }
}

void ledger_to_metrics(Result& r) {
  for (const auto& [name, unit] : per_layer_units()) {
    const LedgerRow* row = nullptr;
    for (const LedgerRow& l : r.ledger) {
      if (l.name == name) row = &l;
    }
    r.add(name, row ? median(row->samples) : 0.0, unit);
  }
}

nitho::NithoConfig table1_model_config() {
  nitho::NithoConfig mc;
  mc.rank = 24;
  mc.encoding.features = 96;
  mc.hidden = 48;
  mc.blocks = 2;
  return mc;
}

std::vector<double> time_setups(int count, const std::function<void()>& setup) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    setup();
    out.push_back(seconds_since(t0));
  }
  return out;
}

void report(const Args& args, const Result& r) {
  std::printf("# workload %s seed %llu seconds %g trace %d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? " (tiny)" : "");
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  if (args.trace) {
    std::printf("# %-32s %-10s %12s %12s %12s %9s\n", "ledger", "unit",
                "median", "q1", "q3", "share%");
    for (const auto& [name, unit] : per_layer_units()) {
      const LedgerRow* row = nullptr;
      for (const LedgerRow& l : r.ledger) {
        if (l.name == name) row = &l;
      }
      if (!row) {
        std::printf("# %-32s %-10s %12s   (not measured)\n", name, unit, "0");
        continue;
      }
      char share[32] = "-";
      if (!row->share.empty()) {
        std::snprintf(share, sizeof share, "%.1f", median(row->share));
      }
      std::printf("# %-32s %-10s %12.5g %12.5g %12.5g %9s  %s\n", name, unit,
                  median(row->samples), quantile(row->samples, 0.25),
                  quantile(row->samples, 0.75), share, row->note.c_str());
    }
  }
  std::int64_t failed = r.failed;
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) ++failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) std::printf(", ");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
