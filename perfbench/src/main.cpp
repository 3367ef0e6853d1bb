// The repository benchmark binary.  perfbench/run.py builds and runs it:
//
//   perfbench --workload imaging|serve|train|opc --seed N --seconds S
//             --trace 0|1 [--tiny]
//
// With --trace 0 it prints the end-to-end metrics of one timed phase; with
// --trace 1 the per-layer ledger.  The last stdout line is one JSON object.
// perfbench/README.md explains each workload and metric.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/parallel.hpp"
#include "harness.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "imaging|serve|train|opc --seed N --seconds S --trace 0|1 "
               "[--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  using Runner = perfbench::Result (*)(const perfbench::Args&);
  const std::pair<const char*, Runner> runners[] = {
      {"imaging", perfbench::run_imaging},
      {"serve", perfbench::run_serve},
      {"train", perfbench::run_train},
      {"opc", perfbench::run_opc}};
  Runner run = nullptr;
  for (const auto& [name, runner] : runners) {
    if (args.workload == name) run = runner;
  }
  if (!run) return usage("unknown workload");

  try {
    // The end-to-end budget: the calling thread plus one pool worker
    // (serve, train and opc lower it to one).
    nitho::set_parallel_workers(2);
    perfbench::Result result = run(args);
    if (args.trace) {
      // Layers this workload never enters are measured by a tiny-size
      // traced run of each workload that owns them, so every per-layer
      // metric is a measurement.
      for (const auto& [name, runner] : runners) {
        if (args.workload == name) continue;
        nitho::set_parallel_workers(2);
        perfbench::Args probe = args;
        probe.workload = name;
        probe.seconds = 1.0;
        probe.tiny = true;
        perfbench::adopt_missing_rows(result, runner(probe), name);
      }
      perfbench::ledger_to_metrics(result);
    }
    perfbench::report(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
