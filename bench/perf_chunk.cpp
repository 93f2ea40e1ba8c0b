// Flash-crowd piece-selection experiment on the chunk substrate.
//
// Probes the RFwPMS claim (arXiv 2211.00213): under a seed-scarce flash
// crowd, local rarest-first herds every peer onto the same availability
// tier, while probabilistic mode suppression deliberately spreads picks
// across tiers. The paper argues suppression stabilises the missing-piece
// regime; this experiment measures what each policy actually buys on our
// substrate — mean download time, crowd drain (peak population and the
// time-averaged backlog it leaves), realised sharing efficiency, and the
// idle-uploader fraction that rarest-first exists to minimise.
//
// The scenario is deliberately hostile: one initial seed, a cold C = 64
// torrent, a flash crowd of class-K users injected at t = 0, and a trickle
// of Poisson arrivals behind them. Rows average over a few RNG seeds so a
// single lucky optimistic unchoke cannot decide the table. `--json <path>`
// records the rows; a full run reproduces the committed BENCH_chunk.json
// byte for byte (the perf_chunk_golden ctest entry checks it).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "btmf/sim/chunk_sim.h"
#include "btmf/util/error.h"
#include "btmf/util/stopwatch.h"

namespace {

struct Row {
  std::string label;
  btmf::sim::PiecePolicy policy;
  double suppression;
};

struct Averages {
  double download = 0.0;
  double peak = 0.0;
  double backlog = 0.0;
  double eta = 0.0;
  double idle = 0.0;
  std::size_t completed = 0;
};

}  // namespace

namespace {

int bench_main(int argc, char** argv) {
  using namespace btmf;
  util::ArgParser parser = bench::make_parser(
      "perf_chunk",
      "Flash-crowd piece-selection ablation: rarest-first vs random vs "
      "RFwPMS mode suppression");
  parser.add_option("chunks", "64", "chunks per file C");
  parser.add_option("entry-rate", "0.25", "trickle arrival rate behind the crowd");
  parser.add_option("gamma", "0.25", "seed departure rate (hot = scarce seeds)");
  parser.add_option("flash-crowd", "60", "users injected at t = 0");
  parser.add_option("horizon", "1500", "simulated time per run");
  parser.add_option("seeds", "3", "RNG seeds averaged per row");
  parser.add_option("suppression", "0.9", "mode-suppression probability");
  parser.add_option("json", "", "also dump rows as JSON to this path");
  if (!parser.parse(argc, argv)) return 0;

  const unsigned num_seeds = parser.get_count("seeds");
  const unsigned chunks = parser.get_count("chunks");
  const unsigned flash_crowd = parser.get_count("flash-crowd", 0);
  const double horizon = parser.get_double("horizon");

  const std::vector<Row> rows{
      {"rarest-first", sim::PiecePolicy::kRarestFirst, 0.0},
      {"random", sim::PiecePolicy::kRandom, 0.0},
      {"mode-suppression", sim::PiecePolicy::kModeSuppression,
       parser.get_double("suppression")},
  };

  util::Table table({"policy", "mean dl time", "peak peers", "avg backlog",
                     "eta_hat", "idle frac", "users done", "wall s"});
  table.set_precision(3);
  std::vector<std::string> json_rows;

  for (const Row& row : rows) {
    Averages avg;
    util::Stopwatch timer;
    for (unsigned s = 0; s < num_seeds; ++s) {
      sim::ChunkSimConfig config;
      config.num_chunks = chunks;
      config.entry_rate = parser.get_double("entry-rate");
      config.fluid.gamma = parser.get_double("gamma");
      config.policy = row.policy;
      config.suppression_prob = row.suppression;
      config.initial_seeds = 1;
      config.flash_crowd = flash_crowd;
      config.horizon = horizon;
      config.warmup = 0.0;  // the crowd IS the experiment — measure it all
      config.seed = std::uint64_t{s} + 1;
      const sim::ChunkSimResult r = sim::run_chunk_sim(config);
      avg.download += r.mean_download_time;
      avg.peak += r.peak_downloaders;
      avg.backlog += r.avg_downloaders;
      avg.eta += r.emergent_eta;
      avg.idle += r.idle_fraction;
      avg.completed += r.completed_peers;
    }
    const double wall = timer.seconds();
    const double n = static_cast<double>(num_seeds);
    avg.download /= n;
    avg.peak /= n;
    avg.backlog /= n;
    avg.eta /= n;
    avg.idle /= n;

    table.add_row({row.label, avg.download, avg.peak, avg.backlog, avg.eta,
                   avg.idle, static_cast<double>(avg.completed), wall});

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"policy\": \"%s\", \"mean_download\": %.3f, "
                  "\"peak_downloaders\": %.1f, \"avg_backlog\": %.2f, "
                  "\"eta_hat\": %.4f, \"idle_fraction\": %.4f, "
                  "\"completed\": %zu}",
                  row.label.c_str(), avg.download, avg.peak, avg.backlog,
                  avg.eta, avg.idle, avg.completed);
    json_rows.emplace_back(buf);
  }

  bench::emit(table,
              "Flash crowd (1 seed, C = 64): piece-selection policies",
              parser.get("csv"));
  std::printf(
      "\nReading: rarest-first should post the lowest download time and\n"
      "idle fraction; mode suppression trades both for tier spread (its\n"
      "win is variance under missing-piece death, not the mean).\n");

  const std::string json_path = parser.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "[\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      out << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json saved to %s)\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
