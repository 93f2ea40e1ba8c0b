// Sensitivity of the paper's conclusions to the two contested fluid
// parameters:
//  * eta — the paper argues for 0.5 (based on the Izal et al. seeder/
//    downloader traffic ratio) where Qiu–Srikant argue ~1; how much do
//    the scheme gaps depend on that choice?
//  * gamma/mu — seed patience relative to upload speed; the closed forms
//    need gamma > mu, and the MTCD-vs-MTSD gap shrinks as seeds become
//    more generous (gamma -> mu keeps torrents saturated with seeds).
#include <vector>

#include "bench_util.h"
#include "btmf/model/backend.h"

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "eta_gamma_ablation",
      "Sensitivity of scheme comparisons to eta and gamma/mu");
  parser.add_option("k", "10", "number of files K");
  parser.add_option("p", "0.9", "file correlation");
  if (!parser.parse(argc, argv)) return 0;

  // CMFSD runs at the spec's default rho = 0.
  model::ScenarioSpec scenario;
  scenario.num_files = parser.get_count("k");
  scenario.correlation = parser.get_double("p");
  const model::Backend& backend = model::require_backend("fluid-equilibrium");
  const auto evaluate = [&](const fluid::FluidParams& params,
                            fluid::SchemeKind scheme) {
    scenario.fluid = params;
    scenario.scheme = scheme;
    return backend.evaluate_or_throw(scenario).avg_online_per_file;
  };

  // ---- eta sweep -------------------------------------------------------
  util::Table eta_table({"eta", "MTSD", "MTCD", "CMFSD rho=0",
                         "MTCD/MTSD", "CMFSD(0)/MTSD"});
  eta_table.set_precision(4);
  for (const double eta : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    fluid::FluidParams params = fluid::kPaperParams;
    params.eta = eta;
    const double mtsd = evaluate(params, fluid::SchemeKind::kMtsd);
    const double mtcd = evaluate(params, fluid::SchemeKind::kMtcd);
    const double cmfsd = evaluate(params, fluid::SchemeKind::kCmfsd);
    eta_table.add_row(
        {eta, mtsd, mtcd, cmfsd, mtcd / mtsd, cmfsd / mtsd});
  }
  bench::emit(eta_table,
              "eta ablation (K=10, p=0.9) — avg online time per file",
              parser.get("csv").empty() ? "" : parser.get("csv") + ".eta.csv");

  // ---- gamma/mu sweep --------------------------------------------------
  util::Table gamma_table({"gamma/mu", "MTSD", "MTCD", "CMFSD rho=0",
                           "MTCD/MTSD", "CMFSD(0)/MTSD"});
  gamma_table.set_precision(4);
  for (const double ratio : {1.25, 1.5, 2.0, 2.5, 4.0, 8.0}) {
    fluid::FluidParams params = fluid::kPaperParams;
    params.gamma = params.mu * ratio;
    const double mtsd = evaluate(params, fluid::SchemeKind::kMtsd);
    const double mtcd = evaluate(params, fluid::SchemeKind::kMtcd);
    const double cmfsd = evaluate(params, fluid::SchemeKind::kCmfsd);
    gamma_table.add_row(
        {ratio, mtsd, mtcd, cmfsd, mtcd / mtsd, cmfsd / mtsd});
  }
  bench::emit(
      gamma_table,
      "gamma/mu ablation (K=10, p=0.9) — avg online time per file",
      parser.get("csv").empty() ? "" : parser.get("csv") + ".gamma.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
