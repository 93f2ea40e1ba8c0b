// Ablation of the CMFSD seed-pool assumption (not in the paper).
//
// The fluid model's S^{i,j} term implicitly assumes virtual-seed and
// real-seed bandwidth is *transferable*: one global pool shared by every
// downloader of the torrent. A literal implementation serves one
// subtorrent per virtual seed. This bench quantifies the gap:
//  * kGlobal            — the fluid assumption (baseline);
//  * kSubtorrentLocal   — random completed file per stage; at rho = 0
//    this convoy-collapses (a starved subtorrent cannot be helped by the
//    peers stuck inside it, and rho = 0 removes their mutual TFT);
//  * kSubtorrentDemandAware — donors re-target the most backlogged
//    completed subtorrent every rate epoch; recovers the global pool at
//    moderate rho but still cannot rescue rho = 0.
//
// Practical reading: the paper's "set rho = 0" recommendation needs
// either chunk-level transferability or a floor rho > 0 in deployment.
#include <string>
#include <vector>

#include "bench_util.h"
#include "btmf/sim/simulator.h"

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "pool_mode_ablation",
      "CMFSD global vs per-subtorrent virtual seeding (Little's-law view)");
  parser.add_option("k", "5", "number of files K");
  parser.add_option("p", "0.9", "file correlation");
  parser.add_option("horizon", "3000", "simulated time per run");
  parser.add_option("reps", "3", "replications per cell");
  parser.add_option("seed", "31", "master RNG seed");
  if (!parser.parse(argc, argv)) return 0;

  const auto reps = static_cast<std::size_t>(parser.get_int("reps"));
  const unsigned k = static_cast<unsigned>(parser.get_int("k"));

  const std::vector<std::pair<std::string, sim::SeedPoolMode>> modes{
      {"global (fluid)", sim::SeedPoolMode::kGlobal},
      {"local random", sim::SeedPoolMode::kSubtorrentLocal},
      {"local demand-aware", sim::SeedPoolMode::kSubtorrentDemandAware},
  };

  util::Table table({"rho", "pool mode", "little online/file (class K)",
                     "censored frac"});
  table.set_precision(4);
  for (const double rho : {0.0, 0.1, 0.2, 0.4, 0.8}) {
    for (const auto& [label, mode] : modes) {
      sim::SimConfig config;
      config.scheme = fluid::SchemeKind::kCmfsd;
      config.num_files = k;
      config.correlation = parser.get_double("p");
      config.visit_rate = 1.0;
      config.rho = rho;
      config.seed_pool = mode;
      config.horizon = parser.get_double("horizon");
      config.warmup = config.horizon * 0.25;
      config.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
      const sim::ReplicationSummary summary =
          sim::run_replications(config, reps);
      double censored = 0.0;
      double arrivals = 0.0;
      for (const sim::SimResult& run : summary.runs) {
        censored += static_cast<double>(run.censored_users);
        arrivals +=
            static_cast<double>(run.total_users + run.censored_users);
      }
      table.add_row({rho, label, summary.class_little_online[k - 1],
                     arrivals > 0.0 ? censored / arrivals : 0.0});
    }
  }
  bench::emit(table,
              "Seed-pool transferability ablation (K=" + std::to_string(k) +
                  ", p=" + parser.get("p") + ")",
              parser.get("csv"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
