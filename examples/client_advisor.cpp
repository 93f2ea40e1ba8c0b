// Scenario example: a BitTorrent client deciding how to schedule a user's
// download queue.
//
// The user queued n files from a catalogue of K correlated files. The
// advisor compares "start them all now" (MTCD — what most clients do)
// against "download one at a time" (MTSD) from the *user's own class*
// perspective, in the fluid model, then confirms the fluid numbers with a
// short discrete-event simulation of the whole swarm.
//
//   ./client_advisor --queued 4 --k 10 --p 0.5
#include <iostream>

#include "btmf/model/backend.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/cli.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"
#include "btmf/util/table.h"

int main(int argc, char** argv) try {
  using namespace btmf;
  util::ArgParser parser("client_advisor",
                         "concurrent or sequential? advice for a user's "
                         "download queue");
  parser.add_option("queued", "4", "files in the user's queue (class i)");
  parser.add_option("k", "10", "catalogue size K");
  parser.add_option("p", "0.5", "estimated file correlation");
  parser.add_flag("no-sim", "skip the confirming simulation");
  if (!parser.parse(argc, argv)) return 0;

  model::ScenarioSpec scenario;
  scenario.num_files = parser.get_count("k");
  const unsigned queued = parser.get_count("queued");
  if (queued > scenario.num_files) {
    throw ConfigError("--queued must lie in [1, K]");
  }
  scenario.correlation = parser.get_double("p");
  scenario.validate();

  const model::Backend& backend = model::require_backend("fluid-equilibrium");
  scenario.scheme = fluid::SchemeKind::kMtcd;
  const model::Outcome mtcd = backend.evaluate_or_throw(scenario);
  scenario.scheme = fluid::SchemeKind::kMtsd;
  const model::Outcome mtsd = backend.evaluate_or_throw(scenario);
  const unsigned idx = queued - 1;

  util::Table table({"strategy", "your online time (all files + seeding)",
                     "your download time", "per file online"});
  table.set_precision(4);
  table.add_row({std::string("concurrent (MTCD)"),
                 mtcd.per_class.online_time[idx],
                 mtcd.per_class.download_time[idx],
                 mtcd.per_class.online_per_file[idx]});
  table.add_row({std::string("sequential (MTSD)"),
                 mtsd.per_class.online_time[idx],
                 mtsd.per_class.download_time[idx],
                 mtsd.per_class.online_per_file[idx]});

  std::cout << "You queued " << queued << " of " << scenario.num_files
            << " files (correlation p = " << scenario.correlation << ")\n\n";
  table.write_pretty(std::cout);

  const bool concurrent_wins =
      mtcd.per_class.online_time[idx] < mtsd.per_class.online_time[idx];
  std::cout << "\nAdvice for YOU: "
            << (concurrent_wins ? "concurrent finishes your queue sooner "
                                  "(you amortise one seeding residence)"
                                : "sequential finishes your queue sooner")
            << ".\nAdvice for the SWARM: sequential — the system-wide "
               "average online time per file is "
            << util::format_double(mtcd.avg_online_per_file, 4)
            << " under MTCD vs "
            << util::format_double(mtsd.avg_online_per_file, 4)
            << " under MTSD.\n";

  if (!parser.get_flag("no-sim")) {
    std::cout << "\nConfirming with a discrete-event swarm simulation "
                 "(this takes a few seconds)...\n";
    sim::SimConfig config;
    config.num_files = scenario.num_files;
    config.correlation = scenario.correlation;
    config.visit_rate = 1.0;
    config.horizon = 4000.0;
    config.warmup = 1000.0;
    config.scheme = fluid::SchemeKind::kMtcd;
    const sim::SimResult mtcd_sim = sim::run_simulation(config);
    config.scheme = fluid::SchemeKind::kMtsd;
    const sim::SimResult mtsd_sim = sim::run_simulation(config);
    std::cout << "  simulated avg online/file: MTCD = "
              << util::format_double(mtcd_sim.avg_online_per_file, 4)
              << ", MTSD = "
              << util::format_double(mtsd_sim.avg_online_per_file, 4)
              << " (fluid said "
              << util::format_double(mtcd.avg_online_per_file, 4) << " / "
              << util::format_double(mtsd.avg_online_per_file, 4) << ")\n";
  }
  return 0;
} catch (const btmf::Error& error) {
  std::cerr << "error: " << error.what() << '\n';
  return 1;
}
