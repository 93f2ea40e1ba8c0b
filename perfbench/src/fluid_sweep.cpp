// fluid-sweep: the path `btmf_tool sweep` and `reproduce` take.
//
// Closed loop, one caller: run_sweep on a dedicated 2-worker pool, each
// repetition into a fresh cache (so every point is computed and stored)
// until --seconds of sweep wall time have run. The grid is a seeded
// p x rho x scheme grid with the scheme axis fastest, so each shard gets
// the same scheme mix; with scheme slowest the shards that drew CMFSD
// ran ~25% longer and the sweep measured shard luck. Every point runs
// fluid-equilibrium (closed forms; ODE + Newton for CMFSD) and
// fluid-transient to the horizon, so math/fluid do most of the work and
// DiskCache::store plus the journal most of the rest. The transient also
// puts the median point in an ODE band (MTCD/MFCD) rather than at a
// microsecond closed form, whose timing moved ~15% between runs.
//
// The traced pass also serves the grid's specs from an in-process
// serve::Daemon (serve_probe.cpp), so the serve layer is measured on
// this workload's inputs.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "btmf/model/backend.h"
#include "btmf/parallel/thread_pool.h"
#include "btmf/robust/checkpoint.h"
#include "btmf/sweep/sweep.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using btmf::fluid::SchemeKind;
using btmf::model::ScenarioSpec;

constexpr std::size_t kWorkers = 2;
/// Set-ups timed before every sweep: one takes well under a millisecond,
/// so setup_s is the median of many spread over the whole run.
constexpr int kSetupsPerSweep = 16;
constexpr std::size_t kNumP = 24;
constexpr std::size_t kNumRho = 20;
constexpr SchemeKind kSchemes[] = {SchemeKind::kMtcd, SchemeKind::kMtsd,
                                   SchemeKind::kMfcd, SchemeKind::kCmfsd};

struct SweepInputs {
  btmf::sweep::Grid grid;
  std::vector<double> rho;  ///< the grid's rho axis
  ScenarioSpec base;
};

/// K = 20 files: per-point compute is ~2.5x that of the paper's K = 10,
/// so fluid solves rather than DiskCache::store set the pace (store cost
/// on this benchmark's reference host swings 10x with the filesystem's
/// recent deletes). The 40000 horizon lets every scheme's transient land
/// inside kTransientTol: MTCD/MFCD's slowest class (20 files in parallel)
/// is still 3.7e-5 off its equilibrium at p = 1 by t = 20000 and 1.4e-9
/// by t = 40000, for ~15% more compute per point.
ScenarioSpec sweep_base() {
  ScenarioSpec base;
  base.num_files = 20;
  base.horizon = 40000.0;
  base.warmup = 5000.0;
  return base;
}

/// Jittered p in (0.1, 1] and rho in [0.05, 1) from the seed, plus rho = 1
/// exactly so the CMFSD(rho=1) == MFCD identity is checked on every p.
SweepInputs make_inputs(std::uint64_t seed) {
  Rng rng(seed, 1);
  std::vector<double> p;
  for (std::size_t i = 0; i < kNumP; ++i) {
    const double lo = 0.1 + 0.9 * static_cast<double>(i) / kNumP;
    const double hi = 0.1 + 0.9 * static_cast<double>(i + 1) / kNumP;
    p.push_back(rng.uniform(lo, hi));
  }
  std::vector<double> rho;
  for (std::size_t i = 0; i + 1 < kNumRho; ++i) {
    const double lo = 0.05 + 0.95 * static_cast<double>(i) / (kNumRho - 1);
    const double hi = 0.05 + 0.95 * static_cast<double>(i + 1) / (kNumRho - 1);
    rho.push_back(rng.uniform(lo, hi));
  }
  rho.push_back(1.0);
  std::vector<double> schemes;
  for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
    schemes.push_back(static_cast<double>(s));
  }
  SweepInputs in;
  in.rho = rho;
  in.grid.axis("p", p).axis("rho", rho).axis("scheme", schemes);
  in.base = sweep_base();
  return in;
}

ScenarioSpec spec_at(const ScenarioSpec& base,
                     const btmf::sweep::GridPoint& point) {
  ScenarioSpec spec = base;
  spec.correlation = point.at("p");
  spec.rho = point.at("rho");
  spec.scheme = kSchemes[static_cast<std::size_t>(point.at("scheme"))];
  return spec;
}

/// Per-point wall times, appended from the pool's workers.
class LatencyLog {
 public:
  void add(double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    samples_ms_.push_back(seconds * 1e3);
  }
  std::vector<double> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::move(samples_ms_);
  }

 private:
  std::mutex mutex_;
  std::vector<double> samples_ms_;  // guarded by mutex_
};

}  // namespace

void check_fluid_sweep(const btmf::sweep::SweepResult& sweep,
                       CheckLog& checks) {
  checks.expect(check_count("sweep failures", sweep.failures, 0));
  // Index MFCD's answer by p so CMFSD(rho=1) can be compared with it.
  std::vector<std::pair<double, double>> mfcd;
  for (const auto& o : sweep.points) {
    if (o.status != btmf::sweep::PointStatus::kOk) continue;
    if (kSchemes[static_cast<std::size_t>(o.point.at("scheme"))] ==
        SchemeKind::kMfcd) {
      mfcd.emplace_back(o.point.at("p"), o.result.at("online"));
    }
  }
  for (const auto& o : sweep.points) {
    if (o.status != btmf::sweep::PointStatus::kOk) {
      checks.expect("point " + o.point.canonical() + " failed: " + o.error);
      continue;
    }
    const std::string where = o.point.canonical();
    checks.expect(check_relative(where + " transient vs equilibrium",
                                 o.result.at("transient_online"),
                                 o.result.at("online"), kTransientTol));
    if (kSchemes[static_cast<std::size_t>(o.point.at("scheme"))] !=
            SchemeKind::kCmfsd ||
        o.point.at("rho") != 1.0) {
      continue;
    }
    const auto it = std::find_if(mfcd.begin(), mfcd.end(), [&](const auto& m) {
      return m.first == o.point.at("p");
    });
    checks.expect(it == mfcd.end()
                      ? "CMFSD " + where + ": no MFCD point at the same p"
                      : check_relative("CMFSD " + where + " vs MFCD",
                                       o.result.at("online"), it->second,
                                       kIdentityTol));
  }
}

RunResult run_fluid_sweep(const RunOptions& options) {
  RunResult result;
  // Shared: the traced pass hands it to the serve probe's injected EvalFn.
  const auto tracer = std::make_shared<Tracer>(options.trace);
  const btmf::model::Backend& equilibrium =
      btmf::model::require_backend("fluid-equilibrium");
  const btmf::model::Backend& transient =
      btmf::model::require_backend("fluid-transient");

  SweepInputs inputs;
  btmf::sweep::SweepSpec spec;
  spec.name = "perfbench-fluid";
  const auto cache_dir = [&](std::size_t sweep) {
    return options.work_dir + "/cache-" + std::to_string(sweep);
  };

  // ---- set-up: what run_sweep needs before its first point ---------------
  // The grid, a kWorkers pool, the cache directory opened through DiskCache
  // (with its stale-temp walk) and the journal at sweep_journal_path. The
  // last set-up before a sweep opens that sweep's own cache_dir, so
  // run_sweep finds the directory made and truncates the journal there;
  // the others open fresh directories of their own. run_sweep starts its
  // own pool (SweepOptions cannot hand one in), so the pool here is
  // started and joined for its cost alone.
  std::vector<double> setup_s;
  std::vector<double> open_ms;
  std::size_t scratch_dirs = 0;
  const auto setup = [&](const std::string& dir) {
    const double t0 = now_s();
    inputs = make_inputs(options.seed);
    { const btmf::parallel::ThreadPool pool(kWorkers); }
    const double t1 = now_s();
    { const btmf::sweep::DiskCache cache(dir); }
    open_ms.push_back((now_s() - t1) * 1e3);
    const std::filesystem::path journal =
        btmf::sweep::sweep_journal_path(spec, dir);
    std::filesystem::create_directories(journal.parent_path());
    { const btmf::robust::CheckpointJournal j(journal.string(), 0, true); }
    setup_s.push_back(now_s() - t0);
  };
  const auto setups_before = [&](std::size_t sweep) {
    for (int i = 1; i < kSetupsPerSweep; ++i) {
      setup(options.work_dir + "/setup-" + std::to_string(scratch_dirs++));
    }
    setup(cache_dir(sweep));
  };
  setups_before(0);

  LatencyLog latency;
  spec.grid = inputs.grid;
  spec.fingerprint = "backend=fluid-equilibrium+fluid-transient|" +
                     inputs.base.fingerprint();
  std::uint64_t sweep_span = 0;
  std::uint64_t sweep_req = 0;
  spec.compute = [&](const btmf::sweep::GridPoint& point) {
    auto span = tracer->span("sweep.point", sweep_req, sweep_span);
    const double t0 = now_s();
    const ScenarioSpec s = spec_at(inputs.base, point);
    btmf::sweep::PointResult out;
    {
      auto eval = tracer->span("model.evaluate.fluid-equilibrium", sweep_req);
      const btmf::model::Outcome o = equilibrium.evaluate_or_throw(s);
      out.values["online"] = o.avg_online_per_file;
      out.values["download"] = o.avg_download_per_file;
    }
    {
      auto eval = tracer->span("model.evaluate.fluid-transient", sweep_req);
      out.values["transient_online"] =
          transient.evaluate_or_throw(s).avg_online_per_file;
    }
    latency.add(now_s() - t0);
    return out;
  };

  // ---- timed phase: cold sweeps until --seconds of sweep wall ------------
  // Each sweep gets its own fresh cache; all are removed after timing so
  // no deletion runs inside the timed phase. The set-ups before every
  // sweep after the first run outside the sweeps' wall.
  std::size_t sweeps = 0;
  double timed = 0.0;
  std::size_t computed = 0;
  std::size_t attempts = 0;
  btmf::sweep::SweepResult last;
  for (; timed < options.seconds; ++sweeps) {
    if (sweeps > 0) setups_before(sweeps);
    btmf::sweep::SweepOptions sweep_options;
    sweep_options.cache_dir = cache_dir(sweeps);
    sweep_options.jobs = kWorkers;
    sweep_req = tracer->next_request();
    btmf::sweep::SweepResult sweep;
    const double t0 = now_s();
    {
      auto span = tracer->span("sweep.run_sweep", sweep_req);
      sweep_span = span.id();
      sweep = btmf::sweep::run_sweep(spec, sweep_options);
    }
    const double wall = now_s() - t0;
    timed += wall;
    result.attempted += sweep.num_points();
    result.failed += sweep.failures;
    computed += sweep.cache_misses;
    for (const auto& o : sweep.points) attempts += o.attempts;
    check_fluid_sweep(sweep, result.checks);
    last = std::move(sweep);
  }
  for (std::size_t i = 0; i < sweeps; ++i) remove_tree(cache_dir(i));
  for (std::size_t i = 0; i < scratch_dirs; ++i) {
    remove_tree(options.work_dir + "/setup-" + std::to_string(i));
  }
  result.e2e.setup_s = median(setup_s);
  const std::vector<double> latency_ms = latency.take();
  result.e2e.evals_per_s = static_cast<double>(result.attempted) / timed;
  result.e2e.latency_p50_ms = percentile(latency_ms, 0.50);
  result.e2e.latency_p99_ms = percentile(latency_ms, 0.99);
  result.note("grid_points", static_cast<double>(inputs.grid.size()), "count");
  result.note("sweeps", static_cast<double>(sweeps), "count");
  result.note("setups", static_cast<double>(setup_s.size()), "count");
  result.note("latency_samples", static_cast<double>(latency_ms.size()),
              "count");

  if (options.trace) {
    double busy = 0.0;
    for (const SpanRecord& r : tracer->named("sweep.point")) busy += r.seconds();
    result.layers["sweep.self_ms_per_point"] =
        sweep_self_per_point(timed, kWorkers, busy, result.attempted) * 1e3;
    result.layers["parallel.busy_share"] = busy_share(busy, kWorkers, timed);
    result.layers["sweep.open_ms"] = median(open_ms);
    result.layers["robust.attempts_per_eval"] =
        share(static_cast<double>(attempts), static_cast<double>(computed));
    for (const std::string b : {"fluid-equilibrium", "fluid-transient"}) {
      result.layers["model.eval_ms." + b] =
          span_p50_ms(*tracer, "model.evaluate." + b);
    }
    std::vector<ScenarioSpec> specs;
    std::vector<ScenarioSpec> sample;  // every 8th point: all 4 schemes
    std::vector<ScenarioSpec> cmfsd;
    std::vector<std::pair<btmf::sweep::CacheKey, btmf::sweep::PointResult>>
        entries;
    for (const auto& o : last.points) {
      specs.push_back(spec_at(inputs.base, o.point));
      if (o.index % 8 < std::size(kSchemes)) sample.push_back(specs.back());
      if (specs.back().scheme == SchemeKind::kCmfsd && cmfsd.size() < 120) {
        cmfsd.push_back(specs.back());
      }
      entries.push_back({{spec.name, spec.fingerprint, o.point.canonical()},
                         o.result});
    }
    probe_model_codec(specs, result);
    probe_supervisor("fluid-equilibrium", sample,
                     btmf::sweep::SweepOptions{}.robust, result);
    probe_solver("fluid-equilibrium", cmfsd, result);
    probe_cache(options.work_dir + "/replay", entries, result);
    probe_trace_overhead(*tracer, timed, result);
    probe_serve(specs, inputs.rho, options.seed, options.work_dir + "/serve",
                tracer, result);
    if (!options.trace_out.empty()) tracer->write(options.trace_out);
  }
  result.e2e.peak_rss_mb = peak_rss_mb();
  return result;
}

}  // namespace perfbench
