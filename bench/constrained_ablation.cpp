// Audit of the paper's two Sec. 2 simplifications (extension).
//
// Table 1 — the "download bandwidth much larger than upload" assumption:
// sweep the per-peer download cap c around the critical value
// c* = gamma mu eta/(gamma - mu) and report the single-torrent download
// time from the closed form and from the agent-level simulator. The
// punchline: at the paper's constants c* = 0.83 mu, so the assumption
// costs nothing as long as peers can download merely as fast as they
// upload.
//
// Table 2 — downloader impatience theta: the classic theta-extension
// treats aborting peers' partial progress as transferable; the
// abort-aware fixed point (and the simulator) waste it. The table
// quantifies how optimistic the classic model is as theta grows.
#include <cmath>

#include "bench_util.h"
#include "btmf/fluid/extended.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/strings.h"

namespace {

btmf::sim::SimResult run_single_torrent(double download_bw,
                                        double abort_rate, double horizon,
                                        std::uint64_t seed) {
  btmf::sim::SimConfig c;
  c.scheme = btmf::fluid::SchemeKind::kMtsd;  // K = 1: plain torrent
  c.num_files = 1;
  c.correlation = 1.0;
  c.visit_rate = 1.0;
  c.download_bw = download_bw;
  c.abort_rate = abort_rate;
  c.horizon = horizon;
  c.warmup = horizon * 0.25;
  c.seed = seed;
  return btmf::sim::run_simulation(c);
}

}  // namespace

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "constrained_ablation",
      "download-bandwidth and abort-rate audits of the fluid assumptions");
  parser.add_option("horizon", "4000", "simulated time per point");
  parser.add_option("seed", "17", "RNG seed");
  if (!parser.parse(argc, argv)) return 0;

  const double horizon = parser.get_double("horizon");
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  const double c_star =
      fluid::critical_download_bandwidth(fluid::kPaperParams);
  std::cout << "critical download bandwidth c* = "
            << util::format_double(c_star, 6) << " = "
            << util::format_double(c_star / fluid::kPaperParams.mu, 4)
            << " x mu\n";

  util::Table bw_table({"c / mu", "regime", "fluid dl time", "sim dl time",
                        "fluid downloaders", "sim downloaders"});
  bw_table.set_precision(4);
  for (const double ratio : {0.25, 0.5, 0.75, 0.8333, 0.9, 1.0, 2.0, 10.0}) {
    fluid::ExtendedParams params;
    params.download_bw = ratio * fluid::kPaperParams.mu;
    const fluid::ExtendedEquilibrium eq =
        fluid::extended_single_torrent_equilibrium(params, 1.0);
    const sim::SimResult r =
        run_single_torrent(params.download_bw, 0.0, horizon, seed);
    bw_table.add_row({ratio,
                      std::string(eq.download_constrained ? "download-bound"
                                                          : "upload-bound"),
                      eq.download_time, r.classes[0].mean_download_per_file,
                      eq.downloaders, r.classes[0].avg_downloaders});
  }
  bench::emit(bw_table, "Download-bandwidth sweep (single torrent, theta=0)",
              parser.get("csv").empty() ? "" : parser.get("csv") + ".bw.csv");

  util::Table theta_table({"theta", "classic dl time", "abort-aware dl time",
                           "sim dl time", "classic compl. frac",
                           "abort-aware compl. frac", "sim compl. frac"});
  theta_table.set_precision(4);
  for (const double theta :
       {1.0 / 480.0, 1.0 / 240.0, 1.0 / 120.0, 1.0 / 60.0}) {
    fluid::ExtendedParams params;
    params.abort_rate = theta;
    const fluid::ExtendedEquilibrium classic =
        fluid::extended_single_torrent_equilibrium(params, 1.0);
    const fluid::ExtendedEquilibrium aware =
        fluid::abort_aware_single_torrent_equilibrium(params, 1.0);
    const sim::SimResult r = run_single_torrent(
        std::numeric_limits<double>::infinity(), theta, horizon, seed);
    const double total =
        static_cast<double>(r.total_users + r.aborted_users);
    theta_table.add_row(
        {theta, classic.download_time, aware.download_time,
         r.classes[0].mean_download_per_file, classic.completion_fraction,
         aware.completion_fraction,
         total > 0.0 ? static_cast<double>(r.total_users) / total : 0.0});
  }
  bench::emit(theta_table,
              "Abort-rate sweep: transferable vs wasted partial progress",
              parser.get("csv").empty() ? ""
                                        : parser.get("csv") + ".theta.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
