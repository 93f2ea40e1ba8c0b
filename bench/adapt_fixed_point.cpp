// Adapt fixed points: fluid prediction vs agent-level simulation
// (extension — the paper proposes Adapt and defers its evaluation).
//
// For a sweep of cheater fractions f, solve the coupled CMFSD + rho
// fluid model (AdaptFluidModel) for the obedient peers' equilibrium rho
// and average online time, and compare against the simulator's measured
// mean departure rho. The qualitative prediction under test: rho*(f)
// rises from ~0 (everyone obedient) toward 1 (cheater-dominated), i.e.
// Adapt degenerates the system gracefully toward MFCD instead of letting
// obedient peers be exploited.
#include <vector>

#include "bench_util.h"
#include "btmf/fluid/adapt_fluid.h"
#include "btmf/fluid/correlation.h"
#include "btmf/sim/simulator.h"

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "adapt_fixed_point", "Adapt equilibrium rho: fluid vs simulation");
  parser.add_option("k", "5", "number of files K");
  parser.add_option("p", "0.9", "file correlation");
  parser.add_option("horizon", "3500", "simulated time per replication");
  parser.add_option("reps", "3", "simulator replications per point");
  parser.add_option("seed", "99", "master RNG seed");
  if (!parser.parse(argc, argv)) return 0;

  const unsigned k = static_cast<unsigned>(parser.get_int("k"));
  const fluid::CorrelationModel corr(k, parser.get_double("p"), 1.0);
  const auto rates = corr.system_entry_rates();

  util::Table table({"cheater frac", "fluid rho* (class K)",
                     "sim mean final rho", "fluid online/file",
                     "sim online/file"});
  table.set_precision(4);

  for (const double f : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    const fluid::AdaptFluidModel model(fluid::kPaperParams, rates, f);
    const fluid::AdaptFluidEquilibrium eq = model.solve();

    sim::SimConfig config;
    config.scheme = fluid::SchemeKind::kCmfsd;
    config.num_files = k;
    config.correlation = parser.get_double("p");
    config.visit_rate = 1.0;
    config.cheater_fraction = f;
    config.adapt.enabled = true;
    config.horizon = parser.get_double("horizon");
    config.warmup = config.horizon * 0.3;
    config.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
    const sim::ReplicationSummary summary = sim::run_replications(
        config, static_cast<std::size_t>(parser.get_int("reps")));

    // Mean departure rho over multi-file classes, rate-weighted.
    double rho_sum = 0.0;
    double weight = 0.0;
    for (unsigned i = 2; i <= k; ++i) {
      const double rate = rates[i - 1];
      rho_sum += rate * summary.class_mean_final_rho[i - 1];
      weight += rate;
    }
    table.add_row({f, eq.rho[k - 1], weight > 0.0 ? rho_sum / weight : 0.0,
                   eq.avg_online_per_file, summary.mean_online_per_file});
  }

  bench::emit(table, "Adapt fixed point vs cheater fraction (K=5, p=0.9)",
              parser.get("csv"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
