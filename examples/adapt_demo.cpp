// Scenario example: watching the Adapt mechanism defend obedient peers.
//
// Runs the CMFSD swarm simulator twice — once with everyone obedient and
// once with a configurable fraction of cheaters who never virtual-seed —
// and prints how the obedient peers' bandwidth-allocation ratio rho
// evolves (the paper's Sec. 4.3 mechanism: start generous at rho = 0,
// self-protect when uploading much more through virtual seeds than
// receiving).
//
//   ./adapt_demo --cheaters 0.8
#include <iostream>

#include "btmf/sim/simulator.h"
#include "btmf/util/cli.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"
#include "btmf/util/table.h"

namespace {

btmf::sim::SimResult run(double cheaters, const btmf::util::ArgParser& args) {
  btmf::sim::SimConfig config;
  config.scheme = btmf::fluid::SchemeKind::kCmfsd;
  config.num_files = args.get_count("k");
  config.correlation = args.get_double("p");
  config.visit_rate = 1.0;
  config.horizon = args.get_double("horizon");
  config.warmup = config.horizon * 0.25;
  config.cheater_fraction = cheaters;
  config.adapt.enabled = true;
  config.seed = 123;
  config.validate();
  return btmf::sim::run_simulation(config);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace btmf;
  util::ArgParser parser("adapt_demo",
                         "watch obedient peers adapt rho under cheating");
  parser.add_option("cheaters", "0.8",
                    "fraction of multi-file users who never virtual-seed");
  parser.add_option("k", "5", "number of files in the torrent");
  parser.add_option("p", "0.9", "file correlation");
  parser.add_option("horizon", "3000", "simulated time");
  if (!parser.parse(argc, argv)) return 0;

  const double cheaters = parser.get_double("cheaters");
  std::cout << "Running the honest swarm..." << std::endl;
  const sim::SimResult honest = run(0.0, parser);
  std::cout << "Running the swarm with " << cheaters * 100
            << "% cheaters..." << std::endl;
  const sim::SimResult cheated = run(cheaters, parser);

  util::Table summary({"swarm", "avg online/file", "final mean rho"});
  summary.set_precision(4);
  summary.add_row({std::string("all obedient"), honest.avg_online_per_file,
                   honest.rho_trajectory_mean.empty()
                       ? 0.0
                       : honest.rho_trajectory_mean.back()});
  summary.add_row({std::string("with cheaters"), cheated.avg_online_per_file,
                   cheated.rho_trajectory_mean.empty()
                       ? 0.0
                       : cheated.rho_trajectory_mean.back()});
  std::cout << '\n';
  summary.write_pretty(std::cout);

  std::cout << "\nObedient peers' mean rho over time (cheated swarm):\n";
  const auto& times = cheated.rho_trajectory_time;
  const auto& rhos = cheated.rho_trajectory_mean;
  const std::size_t stride = std::max<std::size_t>(1, times.size() / 20);
  for (std::size_t s = 0; s < times.size(); s += stride) {
    const int bars = static_cast<int>(rhos[s] * 50.0);
    std::cout << "  t=" << util::format_double(times[s], 5) << "  "
              << std::string(static_cast<std::size_t>(bars), '#') << ' '
              << util::format_double(rhos[s], 3) << '\n';
  }
  std::cout << "\nWhen contributions through virtual seeds persistently "
               "exceed receipts, Adapt raises rho\n(less donation); a "
               "cheater-dominated swarm drives obedient peers toward "
               "rho = 1,\ndegenerating CMFSD into MFCD — exactly the "
               "paper's predicted failure mode.\n";
  return 0;
} catch (const btmf::Error& error) {
  std::cerr << "error: " << error.what() << '\n';
  return 1;
}
