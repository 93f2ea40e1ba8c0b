// perfbench: runs one workload once and prints its result.
//
//   perfbench --workload fluid-sweep|sim-replicate --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// The last stdout line is the JSON result; the lines before it are for
// people. Exit 0 when every output check passed, 1 when one failed (the
// result is still printed), 2 when the run could not produce a result.
// perfbench/run.py builds this binary and is the command BENCHMARK.json
// names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.h"
#include "workload.h"

namespace {

bool parse(int argc, char** argv, perfbench::RunOptions& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && !o.work_dir.empty() &&
         o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    if (!parse(argc, argv, options)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --work-dir DIR [--trace-out FILE]\n");
      return 2;
    }
    std::filesystem::create_directories(options.work_dir);
    perfbench::RunResult result;
    if (options.workload == "fluid-sweep") {
      result = perfbench::run_fluid_sweep(options);
    } else if (options.workload == "sim-replicate") {
      result = perfbench::run_sim_replicate(options);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    perfbench::report(std::cout, options, result);
    return result.checks.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
