// Scale gate for the sharded kernel: a flash-crowd MTCD workload whose
// live population crosses ten million concurrent peer units, run over
// --shards shards at 1, 2 and 4 kernel threads and once unsharded.
//
// Every run's wall time is measured around sim::run_simulation, and the
// four SimResults must be bit-identical: shards and kernel_threads are
// execution knobs that never change an answer (docs/SCALE.md). A full
// run peaks at ~4.1 GB RSS. --smoke shrinks the arrival rate to a CI-sized
// run (seconds, no 10M claim) that still exercises every stage, the JSON
// shape included.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "btmf/obs/metrics.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/error.h"

namespace {

using namespace btmf;

/// Every field but the wall clock, for an exact run-vs-run comparison.
auto fields(const sim::SimResult& r) {
  return std::tie(r.avg_online_per_file, r.avg_download_per_file,
                  r.avg_online_per_user, r.measured_time, r.total_users,
                  r.total_arrivals, r.censored_users, r.aborted_users,
                  r.events_processed, r.rate_epochs, r.peak_live_peers,
                  r.faults_injected, r.downloads_killed, r.arrivals_dropped,
                  r.arrivals_queued, r.readmissions,
                  r.readmission_queue_peak, r.time_to_recover,
                  r.faults_unrecovered, r.rho_trajectory_time,
                  r.rho_trajectory_mean, r.population_time,
                  r.downloaders_trajectory, r.seeds_trajectory);
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  // PerClassResult is one count and ten doubles, without padding, so its
  // bytes are its bits.
  static_assert(sizeof(sim::PerClassResult) ==
                sizeof(std::size_t) + 10 * sizeof(double));
  return fields(a) == fields(b) && a.classes.size() == b.classes.size() &&
         std::memcmp(a.classes.data(), b.classes.data(),
                     a.classes.size() * sizeof(sim::PerClassResult)) == 0;
}

struct Run {
  unsigned shards = 0;
  unsigned threads = 0;
  double wall_s = 0.0;
  sim::SimResult result;
};

}  // namespace

namespace {

int bench_main(int argc, char** argv) {
  util::ArgParser parser = bench::make_parser(
      "perf_scale",
      "Sharded-kernel scale gate: 10M+ peers, wall time vs threads");
  parser.add_option("shards", "8", "torrent shards for the threaded runs");
  parser.add_option("json", "", "dump the scale record as JSON to this path");
  parser.add_flag("smoke", "CI-sized run: seconds of work, no 10M-peer claim");
  if (!parser.parse(argc, argv)) return 0;

  const bool smoke = parser.get_flag("smoke");
  const unsigned shards = parser.get_count("shards");

  // Flash crowd: every user requests all K files (p = 1), arrivals are
  // hot, downloads are fast (hot upload capacity), and seeds linger
  // (mean seeding time 50 >> horizon - arrival), so the live population
  // climbs towards arrivals x K across the whole horizon while every
  // torrent still turns over completions (events on every shard).
  sim::SimConfig config;
  config.scheme = fluid::SchemeKind::kMtcd;
  config.num_files = 10;
  config.correlation = 1.0;
  config.visit_rate = smoke ? 100.0 : 29'000.0;
  config.fluid.mu = 1.0;      // ~2 time units per file download
  config.fluid.gamma = 0.02;  // mean seeding time 50: seeds pile up
  config.horizon = 60.0;
  config.warmup = 15.0;
  config.seed = 31337;
  config.max_active_peers = 50'000'000;

  // The first run also exports its per-shard event counts.
  const std::pair<unsigned, unsigned> layouts[] = {
      {shards, 1}, {shards, 2}, {shards, 4}, {1, 1}};
  obs::MetricsRegistry metrics;
  std::vector<Run> runs;
  for (const auto& [run_shards, threads] : layouts) {
    sim::SimConfig run_config = config;
    run_config.shards = run_shards;
    run_config.kernel_threads = threads;
    if (runs.empty()) run_config.obs.metrics = &metrics;
    const util::Stopwatch timer;
    sim::SimResult result = sim::run_simulation(run_config);
    runs.push_back({run_shards, threads, timer.seconds(), std::move(result)});
  }
  const std::size_t rss = bench::peak_rss_bytes();
  const sim::SimResult& r = runs.front().result;

  const obs::MetricsSnapshot snap = metrics.snapshot();
  std::vector<std::uint64_t> shard_events;
  for (unsigned s = 0;; ++s) {
    const auto it =
        snap.counters.find("sim.kernel.shard" + std::to_string(s) + ".events");
    if (it == snap.counters.end()) break;
    shard_events.push_back(it->second);
  }

  util::Table table({"shards", "threads", "wall s", "events/s"});
  table.set_precision(3);
  std::string rows;
  bool identical = true;
  for (const Run& run : runs) {
    const double rate =
        static_cast<double>(run.result.events_processed) / run.wall_s;
    table.add_row({static_cast<double>(run.shards),
                   static_cast<double>(run.threads), run.wall_s, rate});
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s    {\"shards\": %u, \"threads\": %u, \"wall_s\": %.3f, "
                  "\"events_per_sec\": %.0f}",
                  rows.empty() ? "" : ",\n", run.shards, run.threads,
                  run.wall_s, rate);
    rows += buf;
    identical = identical && same_result(run.result, r);
  }

  bench::emit(table, "Sharded kernel wall time (measured)", parser.get("csv"));
  std::printf("peak live peers : %zu%s\n", r.peak_live_peers,
              smoke ? " (smoke run; the 10M gate applies to full runs)" : "");
  std::printf("events          : %zu   peak RSS: %.1f MiB\n",
              r.events_processed,
              static_cast<double>(rss) / (1024.0 * 1024.0));

  bool ok = true;
  if (!smoke && r.peak_live_peers < 10'000'000) {
    std::fprintf(stderr, "FAIL: peak live peers %zu < 10M gate\n",
                 r.peak_live_peers);
    ok = false;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: the SimResult changed with shards or threads\n");
    ok = false;
  }

  const std::string json_path = parser.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"benchmark\": \"bench/perf_scale\",\n"
        << "  \"workload\": {\"scheme\": \"MTCD\", \"k\": "
        << config.num_files << ", \"p\": 1.0, \"lambda0\": "
        << config.visit_rate << ", \"gamma\": " << config.fluid.gamma
        << ", \"horizon\": " << config.horizon << ", \"seed\": "
        << config.seed << ", \"smoke\": " << (smoke ? "true" : "false")
        << "},\n";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  \"peak_live_peers\": %zu,\n  \"events\": %zu,\n"
                  "  \"peak_rss_bytes\": %zu,\n",
                  r.peak_live_peers, r.events_processed, rss);
    out << buf << "  \"shard_events\": [";
    for (std::size_t s = 0; s < shard_events.size(); ++s) {
      out << (s == 0 ? "" : ", ") << shard_events[s];
    }
    out << "],\n  \"runs\": [\n"
        << rows << "\n  ],\n"
        << "  \"methodology\": \"One process runs the workload four times "
           "in the order listed; wall_s is the steady-clock time of each "
           "run_simulation call, and peak_rss_bytes is the process high "
           "water mark. All four SimResults are bit-identical.\"\n"
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json saved to %s)\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, bench_main);
}
