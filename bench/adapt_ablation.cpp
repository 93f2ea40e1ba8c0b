// Evaluation of the Adapt mechanism (paper Sec. 4.3) — the paper proposes
// it and explicitly leaves its systematic evaluation to future work; this
// bench provides that evaluation.
//
// Table 1: Adapt vs fixed-rho baselines across cheater fractions. The
// prediction to confirm: with few cheaters Adapt keeps the system near
// the generous rho = 0 optimum; as cheaters take over, obedient peers
// self-protect (mean rho climbs toward 1) and the system degenerates
// toward MFCD-like performance — but the obedient peers are no longer
// exploited.
//
// Table 2: sensitivity to the Adapt knobs (phi dead band, step sizes).
#include <string>
#include <vector>

#include "bench_util.h"
#include "btmf/sim/simulator.h"

namespace {

btmf::sim::SimConfig base_config(const btmf::util::ArgParser& parser) {
  btmf::sim::SimConfig config;
  config.scheme = btmf::fluid::SchemeKind::kCmfsd;
  config.num_files = static_cast<unsigned>(parser.get_int("k"));
  config.correlation = parser.get_double("p");
  config.visit_rate = 1.0;
  config.horizon = parser.get_double("horizon");
  config.warmup = config.horizon * 0.3;
  config.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  return config;
}

double mean_final_rho(const btmf::sim::ReplicationSummary& summary,
                      unsigned num_classes) {
  // Average the per-class departure rho over multi-file classes.
  double sum = 0.0;
  unsigned n = 0;
  for (unsigned k = 1; k < num_classes; ++k) {
    sum += summary.class_mean_final_rho[k];
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "adapt_ablation", "Adapt mechanism evaluation under cheating peers");
  parser.add_option("k", "5", "number of files K");
  parser.add_option("p", "0.9", "file correlation");
  parser.add_option("horizon", "3500", "simulated time per run");
  parser.add_option("reps", "3", "replications per cell");
  parser.add_option("seed", "77", "master RNG seed");
  if (!parser.parse(argc, argv)) return 0;

  const auto reps = static_cast<std::size_t>(parser.get_int("reps"));
  const unsigned k = static_cast<unsigned>(parser.get_int("k"));

  // ---- Table 1: Adapt vs fixed rho across cheater fractions -----------
  util::Table table({"cheater frac", "policy", "online/file (obedient avg)",
                     "stderr", "mean final rho"});
  table.set_precision(4);
  for (const double cheaters : {0.0, 0.2, 0.5, 0.8}) {
    for (const std::string& policy :
         {std::string("adapt"), std::string("rho=0"), std::string("rho=1")}) {
      sim::SimConfig config = base_config(parser);
      config.cheater_fraction = cheaters;
      if (policy == "adapt") {
        config.adapt.enabled = true;
      } else {
        config.rho = policy == "rho=0" ? 0.0 : 1.0;
      }
      const sim::ReplicationSummary summary =
          sim::run_replications(config, reps);
      table.add_row({cheaters, policy, summary.mean_online_per_file,
                     summary.stderr_online_per_file,
                     policy == "adapt" ? mean_final_rho(summary, k) : -1.0});
    }
  }
  bench::emit(table, "Adapt vs fixed rho across cheater fractions",
              parser.get("csv"));

  // ---- Table 2: Adapt parameter sensitivity ---------------------------
  struct Knobs {
    std::string label;
    double phi;    // symmetric dead band half-width
    double step;   // v1 = v2
    unsigned consecutive;
  };
  const std::vector<Knobs> grid{
      {"phi=0.0025 step=0.1 n=2", 0.0025, 0.1, 2},
      {"phi=0.005  step=0.1 n=2", 0.005, 0.1, 2},
      {"phi=0.01   step=0.1 n=2", 0.01, 0.1, 2},
      {"phi=0.005  step=0.05 n=2", 0.005, 0.05, 2},
      {"phi=0.005  step=0.25 n=2", 0.005, 0.25, 2},
      {"phi=0.005  step=0.1 n=1", 0.005, 0.1, 1},
      {"phi=0.005  step=0.1 n=4", 0.005, 0.1, 4},
  };
  util::Table knobs_table({"knobs", "online/file (cheaters=0.5)",
                           "mean final rho"});
  knobs_table.set_precision(4);
  for (const Knobs& knobs : grid) {
    sim::SimConfig config = base_config(parser);
    config.cheater_fraction = 0.5;
    config.adapt.enabled = true;
    config.adapt.phi_lo = -knobs.phi;
    config.adapt.phi_hi = knobs.phi;
    config.adapt.step_up = knobs.step;
    config.adapt.step_down = knobs.step;
    config.adapt.consecutive = knobs.consecutive;
    const sim::ReplicationSummary summary =
        sim::run_replications(config, reps);
    knobs_table.add_row({knobs.label, summary.mean_online_per_file,
                         mean_final_rho(summary, k)});
  }
  bench::emit(knobs_table, "Adapt knob sensitivity (phi_1/2, v_1/2, streak)",
              parser.get("csv").empty() ? "" : parser.get("csv") + ".knobs.csv");

  // ---- rho trajectory under a cheater majority -------------------------
  sim::SimConfig config = base_config(parser);
  config.cheater_fraction = 0.8;
  config.adapt.enabled = true;
  const sim::SimResult run = sim::run_simulation(config);
  util::Table trajectory({"t", "mean rho (obedient peers)"});
  trajectory.set_precision(4);
  const std::size_t stride =
      std::max<std::size_t>(1, run.rho_trajectory_time.size() / 24);
  for (std::size_t s = 0; s < run.rho_trajectory_time.size(); s += stride) {
    trajectory.add_row(
        {run.rho_trajectory_time[s], run.rho_trajectory_mean[s]});
  }
  bench::emit(trajectory,
              "Obedient-peer rho trajectory with 80% cheaters (one run)",
              parser.get("csv").empty() ? ""
                                        : parser.get("csv") + ".traj.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
