// Cross-validation experiment (not in the paper, which is numerical-only):
// the agent-level discrete-event simulator vs the fluid-model steady
// states, for all four schemes at the paper's constants.
//
// Columns report both the sample-mean view (completed users) and the
// censoring-free Little's-law view (time-averaged populations / arrival
// rate) next to the fluid prediction.
#include <string>
#include <vector>

#include "bench_util.h"
#include "btmf/model/backend.h"
#include "btmf/sim/simulator.h"

namespace {

struct Row {
  std::string label;
  btmf::fluid::SchemeKind scheme;
  double p;
  double rho;
};

}  // namespace

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "sim_vs_fluid",
      "Agent-level simulation vs fluid steady state, all four schemes");
  parser.add_option("k", "10", "number of files K");
  parser.add_option("lambda0", "1.0", "indexing-server visit rate");
  parser.add_option("horizon", "5000", "simulated time per run");
  parser.add_option("reps", "3", "independent replications per row");
  parser.add_option("seed", "2024", "master RNG seed");
  if (!parser.parse(argc, argv)) return 0;

  const std::vector<Row> rows{
      {"MTSD  p=0.5", fluid::SchemeKind::kMtsd, 0.5, 0.0},
      {"MTCD  p=0.5", fluid::SchemeKind::kMtcd, 0.5, 0.0},
      {"MTCD  p=1.0", fluid::SchemeKind::kMtcd, 1.0, 0.0},
      {"MFCD  p=1.0", fluid::SchemeKind::kMfcd, 1.0, 0.0},
      {"CMFSD p=0.9 rho=0", fluid::SchemeKind::kCmfsd, 0.9, 0.0},
      {"CMFSD p=0.9 rho=0.5", fluid::SchemeKind::kCmfsd, 0.9, 0.5},
      {"CMFSD p=0.9 rho=1", fluid::SchemeKind::kCmfsd, 0.9, 1.0},
      {"CMFSD p=0.1 rho=0", fluid::SchemeKind::kCmfsd, 0.1, 0.0},
  };

  util::Table table({"scenario", "fluid online/file", "sim online/file",
                     "sim stderr", "sim/fluid", "censored frac"});
  table.set_precision(4);

  const model::Backend& backend = model::require_backend("fluid-equilibrium");
  for (const Row& row : rows) {
    model::ScenarioSpec scenario;
    scenario.num_files = parser.get_count("k");
    scenario.correlation = row.p;
    scenario.visit_rate = parser.get_double("lambda0");
    scenario.scheme = row.scheme;
    scenario.rho = row.rho;
    const model::Outcome fluid_report = backend.evaluate_or_throw(scenario);

    sim::SimConfig config;
    config.scheme = row.scheme;
    config.num_files = scenario.num_files;
    config.correlation = row.p;
    config.visit_rate = scenario.visit_rate;
    config.rho = row.rho;
    config.horizon = parser.get_double("horizon");
    config.warmup = config.horizon * 0.25;
    config.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
    const sim::ReplicationSummary summary = sim::run_replications(
        config, static_cast<std::size_t>(parser.get_int("reps")));

    double censored = 0.0;
    double users = 0.0;
    for (const sim::SimResult& run : summary.runs) {
      censored += static_cast<double>(run.censored_users);
      users += static_cast<double>(run.total_users + run.censored_users);
    }
    table.add_row({row.label, fluid_report.avg_online_per_file,
                   summary.mean_online_per_file,
                   summary.stderr_online_per_file,
                   summary.mean_online_per_file /
                       fluid_report.avg_online_per_file,
                   users > 0.0 ? censored / users : 0.0});
  }

  bench::emit(table, "Simulation vs fluid model — average online time/file",
              parser.get("csv"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
