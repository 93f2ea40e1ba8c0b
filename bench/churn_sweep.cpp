// Churn-burst robustness sweep (extension — the paper's swarms never lose
// peers mid-download, but real swarms do, and the fault layer lets us ask
// how each downloading scheme weathers a correlated crash).
//
// Every scheme runs the same scenario with a single churn burst at
// mid-horizon, swept over the kill fraction: each downloading user crashes
// independently with that probability, loses all in-flight (and, here, all
// completed) progress, and re-arrives after an Exp(backoff) delay. The
// table reports the kernel's recovery observability counters — peers
// killed, re-admissions and their queue peak, the time the swarm needed to
// regain its pre-fault population — plus the resulting quality-of-service
// hit. `--json <path>` records the rows; a full run reproduces the
// committed BENCH_faults.json byte for byte (the churn_sweep_golden ctest
// entry checks it).
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/strings.h"

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "churn_sweep", "recovery metrics per scheme under churn bursts");
  parser.add_option("k", "10", "number of files K");
  parser.add_option("p", "0.5", "file request correlation");
  parser.add_option("lambda0", "1.0", "indexing-server visit rate");
  parser.add_option("horizon", "4000", "simulated time per run");
  parser.add_option("backoff", "0.2", "re-arrival rate after a crash");
  parser.add_option("seed", "2025", "RNG seed");
  parser.add_option("json", "", "also dump rows as JSON to this path");
  parser.add_flag("paranoid", "audit kernel invariants after every event");
  if (!parser.parse(argc, argv)) return 0;

  const std::vector<std::pair<std::string, fluid::SchemeKind>> schemes{
      {"MTCD", fluid::SchemeKind::kMtcd},
      {"MTSD", fluid::SchemeKind::kMtsd},
      {"MFCD", fluid::SchemeKind::kMfcd},
      {"CMFSD rho=0.2", fluid::SchemeKind::kCmfsd},
  };
  const std::vector<double> kill_fractions{0.25, 0.5, 0.75};

  util::Table table({"scheme", "kill frac", "killed", "readmitted",
                     "queue peak", "time to recover", "unrecovered",
                     "online/file"});
  table.set_precision(4);
  std::vector<std::string> json_rows;

  for (const auto& [label, scheme] : schemes) {
    for (const double kill : kill_fractions) {
      sim::SimConfig config;
      config.scheme = scheme;
      config.num_files = static_cast<unsigned>(parser.get_int("k"));
      config.correlation = parser.get_double("p");
      config.visit_rate = parser.get_double("lambda0");
      config.rho = scheme == fluid::SchemeKind::kCmfsd ? 0.2 : 0.0;
      config.horizon = parser.get_double("horizon");
      config.warmup = config.horizon * 0.25;
      config.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
      config.paranoid = parser.get_flag("paranoid");

      sim::ChurnBurstFault burst;
      burst.time = config.horizon * 0.5;
      burst.kill_fraction = kill;
      burst.progress_loss = 1.0;
      burst.backoff_rate = parser.get_double("backoff");
      config.faults.churn_bursts.push_back(burst);
      config.validate();

      const sim::SimResult r = sim::run_simulation(config);
      table.add_row({label, kill, static_cast<double>(r.downloads_killed),
                     static_cast<double>(r.readmissions),
                     static_cast<double>(r.readmission_queue_peak),
                     r.time_to_recover,
                     static_cast<double>(r.faults_unrecovered),
                     r.avg_online_per_file});
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"scheme\": \"%s\", \"kill_fraction\": %.2f, "
          "\"downloads_killed\": %zu, \"readmissions\": %zu, "
          "\"readmission_queue_peak\": %zu, \"time_to_recover\": %.3f, "
          "\"faults_unrecovered\": %zu, \"avg_online_per_file\": %.4f, "
          "\"users\": %zu}",
          label.c_str(), kill, r.downloads_killed, r.readmissions,
          r.readmission_queue_peak, r.time_to_recover, r.faults_unrecovered,
          r.avg_online_per_file, r.total_users);
      json_rows.emplace_back(buf);
    }
  }

  bench::emit(table,
              "Churn-burst recovery sweep (single burst at horizon/2, "
              "full progress loss)",
              parser.get("csv"));
  std::cout << "\nReading: sequential schemes re-admit crashed peers into "
               "short per-file downloads and\nrecover quickly; concurrent "
               "schemes lose more aggregate progress per kill, and the\n"
               "re-admission wave is visible in the queue peak.\n";

  const std::string json_path = parser.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"bench/churn_sweep\",\n"
        << "  \"config\": {\"num_files\": " << parser.get_int("k")
        << ", \"correlation\": " << parser.get("p")
        << ", \"visit_rate\": " << parser.get("lambda0")
        << ", \"horizon\": " << parser.get("horizon")
        << ", \"burst_time\": \"horizon/2\", \"progress_loss\": 1.0"
        << ", \"backoff_rate\": " << parser.get("backoff")
        << ", \"seed\": " << parser.get_int("seed") << "},\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      out << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
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
