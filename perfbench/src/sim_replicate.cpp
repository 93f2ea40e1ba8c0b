// sim-replicate: the three simulation hot spots, a third of the work each.
//
// Closed loop, one caller: serial Backend::evaluate calls over
// distinct-seed specs, in rounds of three phases of roughly equal wall
// time, until --seconds have run (whole rounds only, so every run has
// the same phase mix):
//   1. chunk-sim, K=3 swarms of a couple of hundred downloaders
//      (rarest-first; MTCD and CMFSD). Its cost grows faster than the
//      swarm, which is the regime RFwPMS (arXiv 2211.00213) targets.
//   2. kernel-sim at ~1M events per run: CMFSD and MTSD on one kernel,
//      MTCD sharded at shards=4, kernel_threads=2 (every shard replays
//      the arrival stream, so it exercises the kernel differently).
//   3. stochastic-epidemic (MTCD, MTSD; Kesidis et al., arXiv
//      0811.1003) with enough replications that the Gillespie loop
//      dominates the call.
#include <string>
#include <vector>

#include "btmf/model/backend.h"
#include "btmf/obs/metrics.h"
#include "btmf/sim/simulator.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using btmf::fluid::SchemeKind;
using btmf::model::ScenarioSpec;

struct Cell {
  std::string backend;
  ScenarioSpec spec;
};

ScenarioSpec chunk_spec(SchemeKind scheme, Rng& rng) {
  ScenarioSpec s;
  s.num_files = 3;
  s.scheme = scheme;
  s.correlation = 0.5;
  s.rho = 0.5;
  s.visit_rate = rng.uniform(1.9, 2.1);
  s.horizon = 3000.0;
  s.warmup = 800.0;
  return s;
}

ScenarioSpec kernel_spec(SchemeKind scheme, double visit_rate, Rng& rng) {
  ScenarioSpec s;
  s.scheme = scheme;
  s.correlation = rng.uniform(0.65, 0.75);
  s.rho = 0.3;
  s.visit_rate = visit_rate;
  return s;
}

ScenarioSpec epidemic_spec(SchemeKind scheme, unsigned replications,
                           Rng& rng) {
  ScenarioSpec s;
  s.scheme = scheme;
  s.correlation = rng.uniform(0.65, 0.75);
  s.epidemic_replications = replications;
  return s;
}

/// One round: the three phases in order, three evaluations each, every
/// spec with its own seed. Every cell costs ~0.5 s, so the median
/// evaluation sits inside one band instead of between a cheap and an
/// expensive one.
std::vector<Cell> make_round(std::uint64_t seed, std::size_t round) {
  Rng rng(seed, 100 + round);
  std::vector<Cell> cells;
  for (const SchemeKind k :
       {SchemeKind::kMtcd, SchemeKind::kCmfsd, SchemeKind::kMtcd}) {
    cells.push_back({"chunk-sim", chunk_spec(k, rng)});
  }
  cells.push_back({"kernel-sim", kernel_spec(SchemeKind::kCmfsd, 16.0, rng)});
  cells.push_back({"kernel-sim", kernel_spec(SchemeKind::kMtsd, 9.0, rng)});
  ScenarioSpec sharded = kernel_spec(SchemeKind::kMtcd, 9.0, rng);
  sharded.shards = 4;
  sharded.kernel_threads = 2;
  cells.push_back({"kernel-sim", sharded});
  for (const auto& [k, replications] :
       {std::pair{SchemeKind::kMtcd, 250u}, std::pair{SchemeKind::kMtsd, 600u},
        std::pair{SchemeKind::kMtcd, 250u}}) {
    cells.push_back(
        {"stochastic-epidemic", epidemic_spec(k, replications, rng)});
  }
  for (Cell& c : cells) c.spec.seed = rng.next() >> 1;
  return cells;
}

/// Small fixed specs that touch each backend once before timing; the
/// same for every seed, so set-up time does not move with the seed.
std::vector<Cell> warmup_cells() {
  ScenarioSpec chunk;
  chunk.num_files = 3;
  chunk.scheme = SchemeKind::kMtcd;
  chunk.visit_rate = 0.3;
  chunk.horizon = 600.0;
  chunk.warmup = 100.0;
  ScenarioSpec kernel;
  kernel.scheme = SchemeKind::kMtsd;
  kernel.horizon = 1500.0;
  kernel.warmup = 300.0;
  ScenarioSpec epidemic;
  epidemic.scheme = SchemeKind::kMtsd;
  epidemic.epidemic_replications = 2;
  return {{"chunk-sim", chunk},
          {"kernel-sim", kernel},
          {"stochastic-epidemic", epidemic}};
}

struct Evaluated {
  const Cell* cell;
  btmf::model::Outcome outcome;
  double seconds;
};

}  // namespace

RunResult run_sim_replicate(const RunOptions& options) {
  RunResult result;
  Tracer tracer(options.trace);

  // ---- set-up: the spec list plus one small evaluation per backend -----
  // Repeated before every round after the first as well (outside the
  // round's wall); only the first spec list is kept.
  std::vector<std::vector<Cell>> rounds;
  std::vector<double> setup_s;
  const auto setup = [&] {
    std::vector<std::vector<Cell>> built;
    for (std::size_t r = 0; r < 64; ++r) {
      built.push_back(make_round(options.seed, r));
    }
    for (const Cell& c : warmup_cells()) {
      result.checks.expect(check_ok(
          "warm-up " + c.backend,
          btmf::model::require_backend(c.backend).evaluate(c.spec)));
    }
    if (rounds.empty()) rounds = std::move(built);
  };
  for (int i = 0; i < 3; ++i) setup_s.push_back(time_s(setup));

  // ---- timed phase: whole rounds until --seconds ------------------------
  std::vector<Evaluated> done;
  std::vector<double> latency_ms;
  std::map<std::string, std::pair<std::size_t, double>> per_backend;
  double timed = 0.0;
  std::size_t round = 0;
  for (; timed < options.seconds && round < rounds.size(); ++round) {
    if (round > 0) setup_s.push_back(time_s(setup));
    for (const Cell& cell : rounds[round]) {
      const btmf::model::Backend& backend =
          btmf::model::require_backend(cell.backend);
      const std::uint64_t req = tracer.next_request();
      const double t0 = now_s();
      btmf::model::Outcome outcome;
      {
        auto span = tracer.span("model.evaluate." + cell.backend, req);
        outcome = backend.evaluate(cell.spec);
      }
      const double seconds = now_s() - t0;
      timed += seconds;
      latency_ms.push_back(seconds * 1e3);
      auto& [count, wall] = per_backend[cell.backend];
      ++count;
      wall += seconds;
      ++result.attempted;
      if (!outcome.ok()) ++result.failed;
      done.push_back({&cell, std::move(outcome), seconds});
    }
  }
  result.e2e.evals_per_s = static_cast<double>(result.attempted) / timed;
  result.e2e.setup_s = median(setup_s);
  result.e2e.latency_p50_ms = percentile(latency_ms, 0.50);
  result.e2e.latency_p99_ms = percentile(latency_ms, 0.99);
  result.note("rounds", static_cast<double>(round), "count");
  result.note("latency_samples", static_cast<double>(latency_ms.size()),
              "count");
  for (const auto& [backend, cw] : per_backend) {
    const std::string name = backend == "chunk-sim"    ? "chunk"
                             : backend == "kernel-sim" ? "kernel"
                                                       : "epidemic";
    result.note(name + "_evals_per_s",
                static_cast<double>(cw.first) / cw.second, "1/s");
    result.note(name + "_wall_share", cw.second / timed, "share");
  }

  // ---- output checks ----------------------------------------------------
  const btmf::model::Backend& equilibrium =
      btmf::model::require_backend("fluid-equilibrium");
  std::map<std::string, const Evaluated*> first;
  const Evaluated* sharded = nullptr;
  for (const Evaluated& e : done) {
    const std::string what = e.cell->backend + " seed " +
                             std::to_string(e.cell->spec.seed);
    if (!result.checks.expect(check_ok(what, e.outcome))) continue;
    first.try_emplace(e.cell->backend, &e);
    if (e.cell->spec.shards > 1 && sharded == nullptr) sharded = &e;
    if (e.cell->backend == "chunk-sim") continue;
    result.checks.expect(check_relative(
        what + " vs fluid-equilibrium", e.outcome.avg_online_per_file,
        equilibrium.evaluate_or_throw(e.cell->spec).avg_online_per_file,
        kConformanceTol));
  }
  for (const auto& [backend, e] : first) {
    result.checks.expect(check_identical(
        backend + " re-evaluated", e->outcome,
        btmf::model::require_backend(backend).evaluate(e->cell->spec)));
  }
  if (sharded != nullptr) {
    ScenarioSpec inline_run = sharded->cell->spec;
    inline_run.kernel_threads = 1;
    result.checks.expect(check_identical(
        "sharded MTCD vs kernel_threads=1", sharded->outcome,
        btmf::model::require_backend("kernel-sim").evaluate(inline_run)));
  } else {
    result.checks.expect("no sharded kernel cell ran");
  }

  if (options.trace) {
    for (const auto& [backend, count_wall] : per_backend) {
      result.layers["model.eval_ms." + backend] =
          span_p50_ms(tracer, "model.evaluate." + backend);
    }
    double events = 0.0;
    double epochs = 0.0;
    double kernel_s = 0.0;
    double peak_peers = 0.0;
    std::size_t kernel_runs = 0;
    double peak_dl = 0.0;
    std::vector<double> idle;
    std::vector<double> ms_per_rep;
    std::vector<ScenarioSpec> specs;
    for (const Evaluated& e : done) {
      specs.push_back(e.cell->spec);
      if (!e.outcome.ok()) continue;
      if (e.outcome.sim) {
        ++kernel_runs;
        events += static_cast<double>(e.outcome.sim->events_processed);
        epochs += static_cast<double>(e.outcome.sim->rate_epochs);
        kernel_s += e.seconds;
        peak_peers = std::max(
            peak_peers, static_cast<double>(e.outcome.sim->peak_live_peers));
      }
      if (e.outcome.chunk) {
        peak_dl = std::max(peak_dl, e.outcome.chunk->peak_downloaders);
        idle.push_back(e.outcome.chunk->idle_fraction);
      }
      if (e.cell->backend == "stochastic-epidemic") {
        ms_per_rep.push_back(e.seconds * 1e3 /
                             e.cell->spec.epidemic_replications);
      }
    }
    result.layers["sim.kernel.events_per_eval"] =
        share(events, static_cast<double>(kernel_runs));
    result.layers["sim.kernel.events_per_s"] = share(events, kernel_s);
    result.layers["sim.kernel.rate_epochs_per_event"] = share(epochs, events);
    result.layers["sim.kernel.peak_live_peers"] = peak_peers;
    result.layers["sim.chunk.peak_downloaders"] = peak_dl;
    result.layers["sim.chunk.idle_fraction"] = mean(idle);
    result.layers["model.epidemic.ms_per_replication"] = median(ms_per_rep);

    if (sharded != nullptr) {
      btmf::sim::SimConfig config =
          btmf::model::sim_config_from_spec(sharded->cell->spec);
      btmf::obs::MetricsRegistry registry;
      config.obs.metrics = &registry;
      double wall = 0.0;
      {
        auto span = tracer.span("sim.run_simulation", tracer.next_request());
        const double t0 = now_s();
        (void)btmf::sim::run_simulation(config);
        wall = now_s() - t0;
      }
      const btmf::obs::MetricsSnapshot snap = registry.snapshot();
      const double shards = snap.gauges.at("sim.kernel.shards");
      std::vector<double> shard_events;
      for (unsigned s = 0; s < static_cast<unsigned>(shards); ++s) {
        const auto it = snap.counters.find("sim.kernel.shard" +
                                           std::to_string(s) + ".events");
        shard_events.push_back(
            it == snap.counters.end() ? 0.0 : static_cast<double>(it->second));
      }
      result.layers["sim.kernel.barrier_wait_share"] =
          share(snap.gauges.at("sim.kernel.barrier_wait_s"), shards * wall);
      result.layers["sim.kernel.shard_imbalance"] = imbalance(shard_events);
    }
    probe_model_codec(specs, result);
    probe_trace_overhead(tracer, timed, result);
    if (!options.trace_out.empty()) tracer.write(options.trace_out);
  }
  result.e2e.peak_rss_mb = peak_rss_mb();
  return result;
}

}  // namespace perfbench
