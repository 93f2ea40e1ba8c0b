// Model validation (paper Sec. 3.3's correctness argument, extended):
//  (a) with K = 1 every multi-file scheme reduces to the Qiu–Srikant
//      single-torrent result T + 1/gamma = 80;
//  (b) CMFSD at rho = 1 reproduces the MFCD per-file download time for
//      every correlation p — the analytic identity derived in cmfsd.h,
//      here confirmed by the numerical steady-state solver.
#include <cmath>
#include <string>

#include "bench_util.h"
#include "btmf/fluid/mfcd.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/model/backend.h"

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "validation_degenerate",
      "Degenerate-case and identity checks for every fluid model");
  parser.add_option("k", "10", "number of files K for the identity sweep");
  if (!parser.parse(argc, argv)) return 0;

  const model::Backend& backend = model::require_backend("fluid-equilibrium");
  util::Table table({"check", "p", "expected", "measured", "abs diff"});

  model::ScenarioSpec single;
  single.num_files = 1;
  single.correlation = 1.0;
  const double expected = fluid::single_torrent_download_time(single.fluid) +
                          1.0 / single.fluid.gamma;
  for (const fluid::SchemeKind scheme :
       {fluid::SchemeKind::kMtcd, fluid::SchemeKind::kMtsd,
        fluid::SchemeKind::kMfcd, fluid::SchemeKind::kCmfsd}) {
    single.scheme = scheme;
    const double measured =
        backend.evaluate_or_throw(single).avg_online_per_file;
    table.add_row({"K=1 degenerates to Qiu-Srikant, " +
                       std::string(fluid::to_string(scheme)),
                   1.0, expected, measured, std::abs(measured - expected)});
  }

  model::ScenarioSpec scenario;
  scenario.num_files = parser.get_count("k");
  scenario.scheme = fluid::SchemeKind::kCmfsd;
  scenario.rho = 1.0;
  for (const double p : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    scenario.correlation = p;
    const double cmfsd =
        backend.evaluate_or_throw(scenario).avg_download_per_file;
    const double mfcd = fluid::mfcd_download_time_per_file(
        scenario.fluid, scenario.correlation_model());
    table.add_row({"CMFSD(rho=1) == MFCD dl/file", p, mfcd, cmfsd,
                   std::abs(cmfsd - mfcd)});
  }

  table.set_precision(10);
  bench::emit(table, "Model validation — degeneracies and identities",
              parser.get("csv"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
