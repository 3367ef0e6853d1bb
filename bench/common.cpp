#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "baselines/image_trainer.hpp"
#include "common/check.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "nn/serialize.hpp"

namespace nitho::bench {

BenchConfig BenchConfig::from_flags(const Flags& flags) {
  BenchConfig cfg;
  if (flags.get_bool("quick")) {
    cfg.train_count = 16;
    cfg.test_count = 4;
    cfg.nitho_epochs = 30;
    cfg.tempo_epochs = 3;
    cfg.doinn_epochs = 5;
  }
  if (flags.get_bool("full")) {
    cfg.train_count = 96;
    cfg.test_count = 16;
    cfg.nitho_epochs = 120;
    cfg.tempo_epochs = 12;
    cfg.doinn_epochs = 20;
  }
  cfg.train_count = flags.get_int("train", cfg.train_count);
  cfg.test_count = flags.get_int("test", cfg.test_count);
  cfg.nitho_epochs = flags.get_int("nitho-epochs", cfg.nitho_epochs);
  cfg.tempo_epochs = flags.get_int("tempo-epochs", cfg.tempo_epochs);
  cfg.doinn_epochs = flags.get_int("doinn-epochs", cfg.doinn_epochs);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2023));
  return cfg;
}

BenchEnv::BenchEnv(const BenchConfig& cfg) : cfg_(cfg) {
  WallTimer t;
  LithoConfig lc;  // paper optics on 1 um tiles (DESIGN.md §5)
  engine_ = std::make_unique<GoldenEngine>(lc);
  std::printf("[env] golden engine ready: kdim=%d rank=%d (%.1fs)\n",
              engine_->kernel_dim(), engine_->kernels().rank(), t.seconds());
}

const Dataset& BenchEnv::dataset(DatasetKind kind, int count,
                                 std::uint64_t seed, const std::string& key) {
  for (const auto& [k, ds] : cache_) {
    if (k == key) return *ds;
  }
  WallTimer t;
  auto ds = std::make_unique<Dataset>(engine_->make_dataset(kind, count, seed));
  std::printf("[env] dataset %s: %d tiles (%.1fs)\n", key.c_str(), count,
              t.seconds());
  cache_.emplace_back(key, std::move(ds));
  return *cache_.back().second;
}

const Dataset& BenchEnv::train_set(DatasetKind kind) {
  return dataset(kind, cfg_.train_count, cfg_.seed,
                 dataset_name(kind) + "-train");
}

const Dataset& BenchEnv::test_set(DatasetKind kind) {
  return dataset(kind, cfg_.test_count, cfg_.seed + 1000,
                 dataset_name(kind) + "-test");
}

NithoConfig BenchEnv::nitho_config() const {
  NithoConfig mc;
  mc.rank = 24;
  mc.encoding.features = 96;
  mc.hidden = 48;
  mc.blocks = 2;
  return mc;
}

namespace {

std::string cache_path(const std::string& name) {
  return cache_dir() + "/" + name + ".bin";
}

}  // namespace

std::unique_ptr<NithoModel> BenchEnv::trained_nitho(
    const std::string& tag, const std::vector<const Sample*>& data, int epochs,
    int rank, int kernel_dim, EncodingKind pe) {
  NithoConfig mc = nitho_config();
  if (rank > 0) mc.rank = rank;
  if (kernel_dim > 0) mc.kernel_dim = kernel_dim;
  mc.encoding.kind = pe;
  const int ep = epochs > 0 ? epochs : cfg_.nitho_epochs;

  std::ostringstream key;
  key << "nitho-" << tag << "-n" << data.size() << "-e" << ep << "-r"
      << mc.rank << "-k" << mc.kernel_dim << "-pe"
      << static_cast<int>(pe) << "-s" << cfg_.seed;
  auto model = std::make_unique<NithoModel>(mc, litho().tile_nm,
                                            litho().optics.wavelength_nm,
                                            litho().optics.na);
  const std::string path = cache_path(key.str());
  if (std::filesystem::exists(path)) {
    model->load(path);
    std::printf("[env] nitho '%s': loaded from cache\n", tag.c_str());
    return model;
  }
  NithoTrainConfig tc;
  tc.epochs = ep;
  tc.batch = 4;
  WallTimer t;
  const TrainingSet set =
      prepare_training_set(data, model->kernel_dim(), tc.train_px);
  const TrainStats st = train_nitho(*model, set, tc);
  std::printf(
      "[env] nitho '%s': trained %d epochs, loss %.2e (%.0fs; fwd %.0fs "
      "bwd %.0fs)\n",
      tag.c_str(), ep, st.final_loss, t.seconds(), st.forward_seconds,
      st.backward_seconds);
  model->save(path);
  return model;
}

namespace {

template <typename M>
std::unique_ptr<M> train_baseline(const std::string& kind_tag,
                                  const std::string& tag,
                                  const std::vector<const Sample*>& data,
                                  int epochs, int px, std::uint64_t seed,
                                  float lr) {
  auto model = std::make_unique<M>();
  std::ostringstream key;
  key << kind_tag << "-" << tag << "-n" << data.size() << "-e" << epochs
      << "-px" << px << "-s" << seed;
  const std::string path = cache_path(key.str());
  const auto params = model->parameters();
  if (std::filesystem::exists(path)) {
    nn::load_parameters_file(path, params);
    std::printf("[env] %s '%s': loaded from cache\n", kind_tag.c_str(),
                tag.c_str());
    return model;
  }
  ImageTrainConfig ic;
  ic.epochs = epochs;
  ic.px = px;
  ic.lr = lr;
  WallTimer t;
  const TrainStats st = train_image_model(*model, data, ic);
  std::printf("[env] %s '%s': trained %d epochs, loss %.2e (%.0fs)\n",
              kind_tag.c_str(), tag.c_str(), epochs, st.final_loss, t.seconds());
  nn::save_parameters_file(path, params);
  return model;
}

}  // namespace

std::unique_ptr<TempoModel> BenchEnv::trained_tempo(
    const std::string& tag, const std::vector<const Sample*>& data,
    int epochs) {
  // The sigmoid-headed U-Net saturates above ~1e-3 (see baselines/tempo.cpp).
  return train_baseline<TempoModel>(
      "tempo", tag, data, epochs > 0 ? epochs : cfg_.tempo_epochs,
      cfg_.baseline_px, cfg_.seed, 1e-3f);
}

std::unique_ptr<DoinnModel> BenchEnv::trained_doinn(
    const std::string& tag, const std::vector<const Sample*>& data,
    int epochs) {
  return train_baseline<DoinnModel>(
      "doinn", tag, data, epochs > 0 ? epochs : cfg_.doinn_epochs,
      cfg_.baseline_px, cfg_.seed, 2e-3f);
}

EvalResult BenchEnv::eval_nitho(const NithoModel& model, const Dataset& test) {
  std::vector<EvalResult> rs;
  const int px = litho().analysis_px;
  for (const Sample& s : test.samples) {
    rs.push_back(evaluate(s.aerial, predict_aerial(model, s, px),
                          resist_threshold()));
  }
  return average(rs);
}

EvalResult BenchEnv::eval_image(const ImageModel& model, const Dataset& test) {
  std::vector<EvalResult> rs;
  const int px = litho().analysis_px;
  for (const Sample& s : test.samples) {
    rs.push_back(evaluate(s.aerial,
                          predict_aerial(model, s, cfg_.baseline_px, px),
                          resist_threshold()));
  }
  return average(rs);
}

TablePrinter::TablePrinter(std::vector<std::string> headers, int width)
    : cols_(headers.size()), width_(width) {
  row(headers);
  rule();
}

void TablePrinter::row(const std::vector<std::string>& cells) {
  check(cells.size() == cols_, "table row width mismatch");
  for (const auto& c : cells) std::printf("%-*s", width_, c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

void TablePrinter::rule() {
  for (std::size_t i = 0; i < cols_ * static_cast<std::size_t>(width_); ++i) {
    std::printf("-");
  }
  std::printf("\n");
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

double median(std::vector<double> v) {
  check(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::string out_dir() {
  std::filesystem::create_directories("bench_out");
  return "bench_out";
}

std::string cache_dir() {
  std::filesystem::create_directories("bench_cache");
  return "bench_cache";
}

const char* log_simd_arm() {
  const char* name = simd::arm_name(simd::active_arm());
  std::printf("[simd] dispatch arm: %s\n", name);
  return name;
}

}  // namespace nitho::bench
