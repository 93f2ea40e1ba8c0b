// Typed-demand traffic matrix on the backend seam.
//
// Walks demand shapes (homogeneous Poisson, diurnal sinusoid, a
// flash-pulse train, and a two-speed bandwidth-class mix) across the
// backends that evaluate time-varying or heterogeneous traffic
// (fluid-transient, kernel-sim, stochastic-epidemic) and records the
// headline download time plus the wall cost of each cell. Two things are
// being guarded:
//
//  * correctness drift — a full run reproduces the committed
//    BENCH_traffic.json byte for byte (the perf_traffic_golden ctest
//    entry checks it), so a thinning or service-lane regression that
//    shifts results fails the suite;
//  * the homogeneous tax — the Poisson rows measure the same scenarios
//    the repo ran before the demand model existed, so their wall time is
//    the price every legacy run pays for the new code paths (it should
//    be zero: the homogeneous fast paths skip the thinning draw and the
//    class lanes collapse to B = 1).
//
// Unsupported (backend x demand) cells are printed as typed refusals —
// the same contract the conformance matrix enforces — never skipped
// silently. `--json <path>` dumps the rows.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "btmf/fluid/demand.h"
#include "btmf/fluid/schemes.h"
#include "btmf/model/backend.h"
#include "btmf/util/stopwatch.h"

namespace {

struct DemandRow {
  std::string label;
  std::string arrival;  ///< parse_arrival grammar; "poisson" = homogeneous
  std::string classes;  ///< parse_classes grammar; "" = one population
};

}  // namespace

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "perf_traffic",
      "Typed-demand matrix: arrival processes and bandwidth classes "
      "across fluid-transient, kernel-sim and stochastic-epidemic");
  parser.add_option("k", "5", "number of files K");
  parser.add_option("p", "0.7", "file correlation p");
  parser.add_option("horizon", "6000", "simulated end time per cell");
  parser.add_option("ereps", "8", "stochastic-epidemic replications");
  parser.add_option("json", "", "also dump rows as JSON to this path");
  if (!parser.parse(argc, argv)) return 0;

  const double horizon = parser.get_double("horizon");
  const auto ereps = static_cast<unsigned>(parser.get_int("ereps"));

  const std::vector<DemandRow> demands{
      {"poisson", "poisson", ""},
      {"diurnal", "diurnal,0.5,400,0", ""},
      {"flash-train", "flash,0,50,5,400,3", ""},
      {"two-speed classes", "poisson", "1,0.6,0|1,1.4,0"},
  };
  const std::vector<std::string> backends{
      "fluid-transient", "kernel-sim", "stochastic-epidemic"};

  util::Table table({"demand", "backend", "avg dl/file", "wall s"});
  table.set_precision(4);
  std::vector<std::string> json_rows;

  for (const DemandRow& demand : demands) {
    for (const std::string& name : backends) {
      model::ScenarioSpec spec;
      spec.num_files = static_cast<unsigned>(parser.get_int("k"));
      spec.correlation = parser.get_double("p");
      spec.scheme = fluid::SchemeKind::kMtcd;
      spec.horizon = horizon;
      spec.warmup = horizon / 4.0;
      spec.seed = 42;
      spec.epidemic_replications = ereps;
      spec.arrival = fluid::parse_arrival(demand.arrival);
      spec.bandwidth_classes = fluid::parse_classes(demand.classes);

      util::Stopwatch timer;
      const model::Outcome outcome =
          model::require_backend(name).evaluate(spec);
      const double wall = timer.seconds();

      if (outcome.ok()) {
        table.add_row(
            {demand.label, name, outcome.avg_download_per_file, wall});
      } else {
        table.add_row({demand.label, name + " (unsupported)", 0.0, wall});
      }

      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"demand\": \"%s\", \"backend\": \"%s\", "
                    "\"supported\": %s, \"avg_download_per_file\": %.4f}",
                    demand.label.c_str(), name.c_str(),
                    outcome.ok() ? "true" : "false",
                    outcome.ok() ? outcome.avg_download_per_file : 0.0);
      json_rows.emplace_back(buf);
    }
  }

  bench::emit(table,
              "Typed demand matrix (MTCD, K = " + parser.get("k") +
                  ", p = " + parser.get("p") + ")",
              parser.get("csv"));
  std::printf(
      "\nReading: the three backends should agree on each supported demand\n"
      "column within Monte-Carlo tolerance, and the poisson rows cost what\n"
      "they cost before the demand model existed (the homogeneous fast\n"
      "paths skip thinning and collapse the class lanes).\n");

  const std::string json_path = parser.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "[\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      out << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json saved to %s)\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
