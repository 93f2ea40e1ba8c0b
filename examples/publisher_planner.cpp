// Scenario example: a publisher releasing a TV series.
//
// A publisher has E episodes and must choose how to publish them:
//  (a) E separate torrents — users grab them concurrently (MTCD, what
//      clients do by default);
//  (b) E separate torrents — users queue them (MTSD);
//  (c) one multi-file torrent with default clients (MFCD);
//  (d) one multi-file torrent with collaborating CMFSD clients.
// Episodes of one series are highly interest-correlated, so p is high.
// The planner prints the expected per-user completion times for each
// option over a range of season lengths and recommends the best.
//
//   ./publisher_planner --episodes 12 --p 0.9
#include <iostream>
#include <string>
#include <vector>

#include "btmf/model/backend.h"
#include "btmf/util/cli.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"
#include "btmf/util/table.h"

int main(int argc, char** argv) try {
  using namespace btmf;
  util::ArgParser parser("publisher_planner",
                         "choose a publishing strategy for an episodic "
                         "release");
  parser.add_option("episodes", "12", "number of episodes in the season");
  parser.add_option("p", "0.9",
                    "probability a visitor wants any given episode");
  parser.add_option("rho", "0.1",
                    "CMFSD bandwidth ratio clients would use");
  if (!parser.parse(argc, argv)) return 0;

  const unsigned episodes = parser.get_count("episodes");
  const double p = parser.get_double("p");
  const double rho = parser.get_double("rho");
  if (rho < 0.0 || rho > 1.0) throw ConfigError("--rho must lie in [0, 1]");

  model::ScenarioSpec scenario;
  scenario.num_files = episodes;
  scenario.correlation = p;
  scenario.validate();

  const model::Backend& backend = model::require_backend("fluid-equilibrium");
  const auto evaluate = [&](fluid::SchemeKind scheme) {
    scenario.scheme = scheme;
    return backend.evaluate_or_throw(scenario);
  };
  const model::Outcome mtcd = evaluate(fluid::SchemeKind::kMtcd);
  const model::Outcome mtsd = evaluate(fluid::SchemeKind::kMtsd);
  const model::Outcome mfcd = evaluate(fluid::SchemeKind::kMfcd);
  scenario.rho = rho;
  const model::Outcome cmfsd = evaluate(fluid::SchemeKind::kCmfsd);

  // A "binge watcher" requests every episode: class E.
  util::Table table({"publishing strategy", "avg online/file (all users)",
                     "binge watcher full-season online time"});
  table.set_precision(4);
  const unsigned last = episodes - 1;
  table.add_row({std::string("separate torrents, concurrent (MTCD)"),
                 mtcd.avg_online_per_file,
                 mtcd.per_class.online_time[last]});
  table.add_row({std::string("separate torrents, queued (MTSD)"),
                 mtsd.avg_online_per_file,
                 mtsd.per_class.online_time[last]});
  table.add_row({std::string("one multi-file torrent, default (MFCD)"),
                 mfcd.avg_online_per_file,
                 mfcd.per_class.online_time[last]});
  table.add_row({std::string("one multi-file torrent, CMFSD rho=") +
                     util::format_double(rho, 3),
                 cmfsd.avg_online_per_file,
                 cmfsd.per_class.online_time[last]});

  std::cout << "Season of " << episodes << " episodes, correlation p = " << p
            << "\n\n";
  table.write_pretty(std::cout);

  const double saving =
      100.0 * (1.0 - cmfsd.avg_online_per_file / mfcd.avg_online_per_file);
  std::cout << "\nRecommendation: publish the season as ONE multi-file "
               "torrent and ship CMFSD-capable\nclients — average online "
               "time per episode drops "
            << util::format_double(saving, 3)
            << "% versus the default multi-file\nbehaviour (MFCD). If "
               "clients cannot collaborate, separate torrents downloaded "
               "one at a\ntime (MTSD) still beat concurrent downloading.\n";
  return 0;
} catch (const btmf::Error& error) {
  std::cerr << "error: " << error.what() << '\n';
  return 1;
}
