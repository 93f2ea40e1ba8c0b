// What every perfbench workload shares: its options, its result, the
// seeded input generator, and the layer probes more than one workload
// runs in its traced pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "btmf/model/spec.h"
#include "btmf/robust/supervisor.h"
#include "btmf/sweep/cache.h"
#include "btmf/sweep/sweep.h"
#include "checks.h"
#include "tracer.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< length of the timed phase
  bool trace = false;      ///< traced run: per-layer metrics, not e2e
  std::string work_dir;    ///< fresh work directory (relative is fine)
  std::string trace_out;   ///< Chrome trace file of a traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The five end-to-end metrics every workload reports (BENCHMARK.json).
struct EndToEnd {
  double evals_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

struct RunResult {
  std::size_t attempted = 0;  ///< operations attempted in the timed phase
  std::size_t failed = 0;     ///< operations that failed or were refused
  CheckLog checks;
  EndToEnd e2e;
  /// Per-layer metrics measured on this workload; report() fills the
  /// ones whose layer this workload never calls with 0.
  std::map<std::string, double> layers;
  /// Workload-specific numbers printed for people, not in the final line.
  std::vector<Metric> detail;

  void note(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Runs one workload; throws btmf::Error or std::exception on a failure
/// that leaves no result (the caller exits non-zero without a result).
RunResult run_fluid_sweep(const RunOptions& options);
RunResult run_sim_replicate(const RunOptions& options);

/// fluid-sweep's output checks on one sweep: every point ok, every
/// point's transient within kTransientTol of its equilibrium, and CMFSD at
/// rho = 1 equal to MFCD at the same p within kIdentityTol. Points carry
/// "online" (equilibrium) and "transient_online" values and the axes p,
/// rho and scheme (0..3 = MTCD, MTSD, MFCD, CMFSD).
void check_fluid_sweep(const btmf::sweep::SweepResult& sweep, CheckLog& checks);

/// Deterministic input generator (SplitMix64 over a seed and a stream
/// tag), so one --seed fixes every input of every workload.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  double uniform(double lo, double hi);
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Peak resident set (VmHWM) of this process in MB; 0 without procfs.
[[nodiscard]] double peak_rss_mb();

/// Wall seconds `work` takes. setup_s is the median of several timed
/// set-ups; the gated workloads repeat theirs between timed parts too,
/// so the median samples the whole run rather than one moment of a host
/// whose speed drifts by tens of percent from one second to the next.
[[nodiscard]] double time_s(const std::function<void()>& work);

/// Removes `path` recursively if it exists (best effort).
void remove_tree(const std::string& path);

// ---- layer probes shared by the traced passes ---------------------------

/// model.wire_us and model.fingerprint_us over `specs` (medians, us).
void probe_model_codec(const std::vector<btmf::model::ScenarioSpec>& specs,
                       RunResult& result);

/// robust.overhead_us: median over `specs` of supervise(evaluate) minus
/// the bare evaluate of the same spec, alternating which runs first.
void probe_supervisor(const std::string& backend,
                      const std::vector<btmf::model::ScenarioSpec>& specs,
                      const btmf::robust::SupervisorOptions& supervisor,
                      RunResult& result);

/// math.*: re-evaluates `specs` on `backend` with solver.trace attached
/// and reads the ode.integrate and equilibrium.rung spans.
void probe_solver(const std::string& backend,
                  const std::vector<btmf::model::ScenarioSpec>& specs,
                  RunResult& result);

/// sweep.store_us_p50 / sweep.lookup_us_p50: replays `entries` through a
/// fresh DiskCache at `dir` (same filesystem as the workload's cache).
void probe_cache(
    const std::string& dir,
    const std::vector<std::pair<btmf::sweep::CacheKey,
                                btmf::sweep::PointResult>>& entries,
    RunResult& result);

/// obs.trace_overhead_share: measured cost of one span times the spans
/// `tracer` recorded, over the timed phase's wall.
void probe_trace_overhead(const Tracer& tracer, double timed_wall_s,
                          RunResult& result);

/// serve.*: starts an in-process serve::Daemon in `dir`, has it prefill
/// `hot` through two client connections, then runs a closed-loop mix of
/// warm hits, fresh misses, duplicates of in-flight misses and warm sweep
/// frames over `sweep_rhos` (serve_probe.cpp). Checks every reply against
/// an in-process evaluation and the evaluation count against the distinct
/// fresh specs; the daemon-side evaluations record spans on `tracer`.
void probe_serve(const std::vector<btmf::model::ScenarioSpec>& hot,
                 const std::vector<double>& sweep_rhos, std::uint64_t seed,
                 const std::string& dir, const std::shared_ptr<Tracer>& tracer,
                 RunResult& result);

/// p50 of the spans named `name`, in ms (0 when none).
[[nodiscard]] double span_p50_ms(const Tracer& tracer, const std::string& name);

}  // namespace perfbench
