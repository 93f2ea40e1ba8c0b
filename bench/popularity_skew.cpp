// Heterogeneous (Zipf) file popularity ablation — extension toward the
// paper's future-work question of how files are correlated in practice.
//
// Zipf(s) catalogues at equal total demand (same mean request
// probability) for several skews s: per-torrent MTCD factors A_j, the
// popularity-weighted averages, CMFSD with the Poisson-binomial class
// rates, and an agent-level simulation cross-check on the headline
// number. Prediction: skew creates a hot/cold split — cold torrents are
// populated by peers whose bandwidth is split across many hot files, so
// their per-file factor grows — while the CMFSD global pool is nearly
// skew-insensitive.
#include <numeric>

#include "bench_util.h"
#include "btmf/fluid/cmfsd.h"
#include "btmf/fluid/hetero.h"
#include "btmf/fluid/metrics.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/strings.h"

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "popularity_skew", "Zipf popularity ablation: MTCD and CMFSD");
  parser.add_option("k", "10", "number of files K");
  parser.add_option("mean-p", "0.5", "mean request probability");
  parser.add_option("horizon", "4000", "simulated time for the sim check");
  parser.add_option("seed", "23", "RNG seed");
  if (!parser.parse(argc, argv)) return 0;

  const unsigned k = static_cast<unsigned>(parser.get_int("k"));
  const double mean_p = parser.get_double("mean-p");

  util::Table table({"Zipf s", "hottest p", "coldest p",
                     "MTCD A (hot)", "MTCD A (cold)",
                     "MTCD online/file", "sim MTCD online/file",
                     "CMFSD rho=0 online/file"});
  table.set_precision(4);

  for (const double skew : {0.0, 0.5, 1.0, 1.5}) {
    const auto probs =
        fluid::HeterogeneousCatalog::zipf_profile(k, skew, mean_p);
    const fluid::HeterogeneousCatalog catalog(probs, 1.0);
    const fluid::HeteroMtcdReport mtcd =
        fluid::hetero_mtcd_report(fluid::kPaperParams, catalog);

    // CMFSD with the Poisson-binomial class rates (global pool: only
    // the class populations matter).
    const auto class_rates = catalog.system_class_rates();
    const fluid::CmfsdEquilibrium cmfsd =
        fluid::CmfsdModel(fluid::kPaperParams, class_rates, 0.0).solve();
    const double cmfsd_online =
        fluid::average_online_time_per_file(cmfsd.metrics, class_rates);

    // Agent-level cross-check of the MTCD headline (Little view of the
    // population totals would need per-torrent resolution; the sample
    // mean over completing users is the directly comparable number).
    sim::SimConfig config;
    config.scheme = fluid::SchemeKind::kMtcd;
    config.num_files = k;
    config.file_probs = probs;
    config.visit_rate = 1.0;
    config.horizon = parser.get_double("horizon");
    config.warmup = config.horizon * 0.25;
    config.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
    const sim::SimResult sim_result = sim::run_simulation(config);

    table.add_row({skew, probs.front(), probs.back(),
                   mtcd.per_torrent_factor.front(),
                   mtcd.per_torrent_factor.back(),
                   mtcd.avg_online_per_file,
                   sim_result.avg_online_per_file, cmfsd_online});
  }

  bench::emit(table,
              "Zipf popularity ablation at equal demand (K=" +
                  std::to_string(k) +
                  ", mean p=" + util::format_double(mean_p, 4) + ")",
              parser.get("csv"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
