// Shared driver for the figure benches. Since the sweep engine landed,
// the grids, captions and paper claims of fig2/fig3/fig4a/fig4bc live in
// ONE place — the figure registry behind `btmf_tool reproduce`
// (src/sweep/src/reproduce.cpp) — and each bench binary is a thin wrapper
// that runs its registered figure, prints the data tables, and reports
// the claim checks. Custom grids (other K, other step counts) are served
// by `btmf_tool sweep`.
#pragma once

#include <iostream>
#include <string>

#include "bench_util.h"
#include "btmf/sweep/reproduce.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"

namespace btmf::bench {

/// Runs registered figure `figure` with bench-standard options (--csv,
/// --cache-dir, --jobs). Returns 0 when every claim passes, 1 otherwise.
inline int run_figure_bench(const std::string& program,
                            const std::string& figure, int argc,
                            const char* const* argv) {
  const sweep::FigureSpec* spec = sweep::find_figure(figure);
  if (spec == nullptr) throw ConfigError("unregistered figure " + figure);

  util::ArgParser parser = make_parser(
      program, spec->title + " [" + spec->paper_ref +
                   "] — thin wrapper over the `btmf_tool reproduce` "
                   "registration");
  parser.add_option("cache-dir", "",
                    "sweep point cache root ('' = uncached)");
  parser.add_option("jobs", "0", "cap on worker threads (0 = no cap)");
  if (!parser.parse(argc, argv)) return 0;

  sweep::SweepOptions options;
  options.cache_dir = parser.get("cache-dir");
  const long long jobs = parser.get_int("jobs");
  if (jobs < 0) throw ConfigError("--jobs must be >= 0");
  options.jobs = static_cast<std::size_t>(jobs);

  const sweep::FigureReport report = spec->run(options);
  const std::string csv = parser.get("csv");
  for (std::size_t i = 0; i < report.tables.size(); ++i) {
    std::string path = csv;
    if (!path.empty() && report.tables.size() > 1) {
      path += '.';
      path += std::to_string(i + 1);
      path += ".csv";
    }
    emit(report.tables[i].second, report.tables[i].first, path);
  }
  std::cout << '\n';
  for (const sweep::Claim& claim : report.claims) {
    std::cout << (claim.pass ? "PASS  " : "FAIL  ") << claim.id << " — "
              << claim.description << '\n';
  }
  std::cout << "(" << report.stats.points << " points: "
            << report.stats.cache_hits << " cached, "
            << report.stats.cache_misses << " computed in "
            << util::format_double(report.stats.seconds, 3) << " s)\n";
  return report.all_pass() ? 0 : 1;
}

}  // namespace btmf::bench
