// Fig. 5: runtime comparison in throughput (um^2/s).
//
// Times the complete mask-to-aerial pipeline for each model on freshly
// rasterized tiles: baselines run mask downsampling + network forward;
// Nitho runs the cropped-spectrum FFT + SOCS with its learned kernels (no
// network at inference, paper §III-C1); the reference simulator runs
// full Abbe source-point summation.
//
// The Nitho row is measured two ways: the single-mask API and the batched
// AerialEngine sweep.

#include <cstdio>
#include <vector>

#include "baselines/image_trainer.hpp"
#include "common.hpp"
#include "common/timer.hpp"
#include "fft/spectral.hpp"
#include "io/csv.hpp"
#include "layout/raster.hpp"
#include "nitho/fast_litho.hpp"

using namespace nitho;
using namespace nitho::bench;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  log_simd_arm();
  BenchEnv env(BenchConfig::from_flags(flags));
  const int tiles = flags.get_int("tiles", 6);
  const int ref_tiles = flags.get_int("ref-tiles", 2);
  std::printf("== Fig. 5: runtime comparison (throughput, um^2/s) ==\n\n");

  // Models: reuse the B2v-trained checkpoints when cached; weights do not
  // affect runtime.
  const auto train = sample_ptrs(env.train_set(DatasetKind::B2v));
  auto tempo = env.trained_tempo("B2v", train);
  auto doinn = env.trained_doinn("B2v", train);
  auto nitho = env.trained_nitho("B2v", train);
  const FastLitho fast = FastLitho::from_model(*nitho);

  // Fresh masks (rasterization itself is not timed: all models share it).
  Rng rng(31337);
  std::vector<Grid<double>> masks;
  for (int i = 0; i < tiles; ++i) {
    masks.push_back(rasterize(make_layout(DatasetKind::B2m, 1024, rng), 1));
  }
  const double tile_um2 = 1.024 * 1.024;
  const int px = env.litho().analysis_px;
  const int bpx = env.cfg().baseline_px;

  auto time_model = [&](auto&& fn, int count) {
    WallTimer t;
    for (int i = 0; i < count; ++i) fn(masks[static_cast<std::size_t>(i)]);
    return count * tile_um2 / t.seconds();
  };

  // Protocol: every model must deliver the aerial image on the analysis
  // grid (px^2).  The CNNs run their forward pass at that resolution (their
  // outputs are not band-limited, so they cannot be computed small and
  // upsampled exactly); Nitho's engine sums SOCS on the smallest alias-free
  // grid and resamples to px itself, which is exact for the band-limited
  // intensity (DESIGN.md §6.5).
  (void)bpx;
  const double tempo_tp = time_model(
      [&](const Grid<double>& m) {
        Sample s;
        s.mask_coarse = downsample_area(m, m.rows() / px);
        (void)predict_aerial(*tempo, s, px, px);
      },
      tiles);
  const double doinn_tp = time_model(
      [&](const Grid<double>& m) {
        Sample s;
        s.mask_coarse = downsample_area(m, m.rows() / px);
        (void)predict_aerial(*doinn, s, px, px);
      },
      tiles);
  // The single-mask API and the batched sweep, on the same kernel set and
  // masks.
  const double nitho_tp = time_model(
      [&](const Grid<double>& m) { (void)fast.aerial_from_mask(m, px); },
      tiles);
  const double nitho_batch_tp = [&] {
    WallTimer t;
    (void)fast.aerial_batch(masks, px);
    return tiles * tile_um2 / t.seconds();
  }();
  // Rigorous work profile: a 255-order spectrum window imaged at 256^2 per
  // source point — no band-limit shortcut, as in production rigorous codes.
  const double ref_tp = time_model(
      [&](const Grid<double>& m) {
        (void)env.engine().reference_aerial(m, 256, 255);
      },
      ref_tiles);

  TablePrinter tp({"Model", "um2/s", "paper um2/s", "speed vs ref"}, 14);
  tp.row({"TEMPO", fmt(tempo_tp, 2), "28", fmt(tempo_tp / ref_tp, 1) + "x"});
  tp.row({"DOINN", fmt(doinn_tp, 2), "34", fmt(doinn_tp / ref_tp, 1) + "x"});
  tp.row({"Nitho (single)", fmt(nitho_tp, 2), "45",
          fmt(nitho_tp / ref_tp, 1) + "x"});
  tp.row({"Nitho (batch)", fmt(nitho_batch_tp, 2), "45",
          fmt(nitho_batch_tp / ref_tp, 1) + "x"});
  tp.row({"Ref (Abbe)", fmt(ref_tp, 2), "0.4-0.5", "1x"});
  tp.rule();

  CsvWriter csv(out_dir() + "/fig5_runtime.csv", {"model", "um2_per_s"});
  csv.row({"TEMPO", fmt(tempo_tp, 4)});
  csv.row({"DOINN", fmt(doinn_tp, 4)});
  csv.row({"Nitho_single", fmt(nitho_tp, 4)});
  csv.row({"Nitho_batch", fmt(nitho_batch_tp, 4)});
  csv.row({"Reference", fmt(ref_tp, 4)});
  std::printf(
      "\nPaper shape: Nitho > DOINN > TEMPO >> rigorous simulator (~90x).\n"
      "All numbers above are measured on this machine's CPU (the paper\n"
      "used a GPU; ratios, not absolutes, are the comparison target).\n");
  return 0;
}
