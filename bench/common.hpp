#pragma once
// Shared infrastructure for the per-table / per-figure bench harnesses.
//
// Scale: every bench runs the paper's optics (lambda=193 nm, NA=1.35,
// annular 0.5/0.8) on 1 um x 1 um tiles rasterized at 1 nm (DESIGN.md §3),
// giving Eq.-10 kernels of 29x29.  Datasets are generated fresh per run;
// trained models are cached under bench_cache/ so later benches (Table IV,
// Fig. 2b, ...) reuse Table III's training instead of repeating it.  CSVs
// land in bench_out/.

#include <memory>
#include <string>
#include <vector>

#include "baselines/doinn.hpp"
#include "baselines/tempo.hpp"
#include "common/flags.hpp"
#include "litho/golden.hpp"
#include "metrics/metrics.hpp"
#include "nitho/fast_litho.hpp"
#include "nitho/model.hpp"
#include "nitho/trainer.hpp"

namespace nitho::bench {

/// Bench-wide knobs, overridable from the command line:
///   --train N --test N --nitho-epochs N --baseline-epochs N --quick --full
struct BenchConfig {
  int train_count = 32;
  int test_count = 8;
  int nitho_epochs = 60;
  int tempo_epochs = 8;
  int doinn_epochs = 10;
  /// Baseline training/inference grid.  32 keeps the deep U-Net trainable
  /// within the CPU budget (at 64 it regresses to mean-prediction); outputs
  /// are spectrally upsampled to the analysis grid for metrics.
  int baseline_px = 32;
  std::uint64_t seed = 2023;

  static BenchConfig from_flags(const Flags& flags);
};

/// One shared golden engine + dataset memoization per process.
class BenchEnv {
 public:
  explicit BenchEnv(const BenchConfig& cfg);

  const BenchConfig& cfg() const { return cfg_; }
  const GoldenEngine& engine() const { return *engine_; }
  const LithoConfig& litho() const { return engine_->config(); }
  double resist_threshold() const { return litho().resist.threshold; }

  /// Memoized: train split (seed) and test split (seed + 1000) per family.
  const Dataset& train_set(DatasetKind kind);
  const Dataset& test_set(DatasetKind kind);

  /// Default Nitho model (Table I size point: ~0.08 MB).
  NithoConfig nitho_config() const;

  /// Trains (or loads from bench_cache/) a Nitho model on the given samples.
  /// tag identifies the training set in the cache key.
  std::unique_ptr<NithoModel> trained_nitho(const std::string& tag,
                                            const std::vector<const Sample*>& data,
                                            int epochs = -1, int rank = -1,
                                            int kernel_dim = -1,
                                            EncodingKind pe = EncodingKind::GaussianRff);

  std::unique_ptr<TempoModel> trained_tempo(const std::string& tag,
                                            const std::vector<const Sample*>& data,
                                            int epochs = -1);
  std::unique_ptr<DoinnModel> trained_doinn(const std::string& tag,
                                            const std::vector<const Sample*>& data,
                                            int epochs = -1);

  /// Evaluation at the analysis grid, averaged over a test set.
  EvalResult eval_nitho(const NithoModel& model, const Dataset& test);
  EvalResult eval_image(const ImageModel& model, const Dataset& test);

 private:
  BenchConfig cfg_;
  std::unique_ptr<GoldenEngine> engine_;
  std::vector<std::pair<std::string, std::unique_ptr<Dataset>>> cache_;

  const Dataset& dataset(DatasetKind kind, int count, std::uint64_t seed,
                         const std::string& key);
};

/// Fixed-width table printer for paper-style output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int width = 11);
  void row(const std::vector<std::string>& cells);
  void rule();

 private:
  std::size_t cols_;
  int width_;
};

std::string fmt(double v, int precision = 2);

/// Repeats behind every gated serving ratio (bench_serve, bench_rollout):
/// each ratio is measured this many times, from adjacent runs, and the
/// median is written, so one slow spell of a shared box moves one sample,
/// not the gated figure.
inline constexpr int kGateRepeats = 5;

/// Median of a non-empty sample (mean of the middle two for an even count).
double median(std::vector<double> v);

/// Output directories (created on demand): bench_out/, bench_cache/.
std::string out_dir();
std::string cache_dir();

/// Prints "[simd] dispatch arm: <scalar|sse2|avx2>" and returns the arm
/// name, so every gated bench logs — and its CSV can record — which kernel
/// arm produced the numbers.
const char* log_simd_arm();

}  // namespace nitho::bench
