// The CMFSD social dilemma, quantified (extension of Sec. 4.3).
//
// For population ratios rho_bar and correlations p, print a tagged
// class-K peer's download time when it conforms vs when it defects
// (rho_d = 1), the relative temptation, and the welfare anchor points.
// The structure this reveals: defection is a dominant strategy (the
// temptation column is positive everywhere except rho_bar = 1), yet a
// defector inside a generous population still finishes faster than
// anyone in the all-defect equilibrium — the textbook prisoner's-dilemma
// shape that motivates the paper's Adapt mechanism.
#include "bench_util.h"
#include "btmf/fluid/correlation.h"
#include "btmf/fluid/incentives.h"

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "incentive_gap", "conform-vs-defect download times under CMFSD");
  parser.add_option("k", "10", "number of files K");
  if (!parser.parse(argc, argv)) return 0;

  const unsigned k = static_cast<unsigned>(parser.get_int("k"));

  util::Table table({"p", "population rho", "conform dl (class K)",
                     "defect dl (class K)", "temptation %",
                     "pool rate / mu"});
  table.set_precision(4);
  for (const double p : {0.3, 0.9}) {
    const fluid::CorrelationModel corr(k, p, 1.0);
    const auto rates = corr.system_entry_rates();
    for (const double rho_bar : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const fluid::IncentiveReport report =
          fluid::cmfsd_incentives(fluid::kPaperParams, rates, rho_bar);
      table.add_row({p, rho_bar, report.conforming_download[k - 1],
                     report.defecting_download[k - 1],
                     100.0 * report.temptation[k - 1],
                     report.pool_rate / fluid::kPaperParams.mu});
    }
  }
  bench::emit(table, "CMFSD incentive gap (tagged class-K peer)",
              parser.get("csv"));
  std::cout << "\nReading: positive temptation at every rho_bar < 1 makes "
               "defection dominant, while the\nconform column at rho_bar=0 "
               "vs rho_bar=1 shows what universal cooperation is worth — "
               "the\nclassic social dilemma the Adapt mechanism (Sec. 4.3) "
               "exists to police.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
