// The sweep engine: fan a parameter grid out over idle cores, cache each
// point's result on disk, tolerate per-point failures.
//
// Fluid sweeps over (p, rho, lambda, gamma, ...) grids are embarrassingly
// parallel, and the per-point solves are pure functions of their inputs —
// so the engine treats every point as an independent, content-addressed
// unit of work: look it up in the cache, compute on miss, store, move on.
// Results land in pre-allocated slots indexed by grid position, making
// the output bit-identical for any job count or cache state (cold, warm,
// or partially warm after an interrupted run).
//
// A point whose compute function throws is recorded as failed (with the
// exception message) without killing the sweep or poisoning the cache;
// callers decide whether a partial sweep is usable. Progress streams
// through an optional obs::MetricsRegistry (`sweep.*` counters — see
// docs/OBSERVABILITY.md and docs/SWEEP.md).
//
// Every computed point runs under the execution supervisor (btmf::robust):
// SweepOptions::robust adds per-point deadlines, retry-with-backoff, and
// forked crash isolation; failures carry a typed FailureKind. A
// write-ahead journal next to the cache records each computed point, so
// an interrupted sweep rerun with SweepOptions::resume replays journaled
// failures verbatim and serves successes from the cache — the resumed
// SweepResult is bit-identical to an uninterrupted run's. Corrupt cache
// entries are quarantined and recomputed, never fatal. All of it is
// inert by default: a default-constructed SweepOptions behaves exactly
// as before the supervisor existed. See docs/ROBUSTNESS.md.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "btmf/obs/metrics.h"
#include "btmf/robust/failure.h"
#include "btmf/robust/supervisor.h"
#include "btmf/sweep/cache.h"
#include "btmf/sweep/grid.h"

namespace btmf::sweep {

/// Computes one grid point. Must be a pure function of the point (plus
/// the configuration captured in SweepSpec::fingerprint — anything that
/// changes the output MUST be folded into the fingerprint, or the cache
/// will serve stale results). Thread-safe: called concurrently from the
/// sweep's workers. It may fan out itself (parallel::fan_out): the
/// sweep's workers hold their cores, so a nested fan-out runs serially
/// unless cores are idle.
using PointFn = std::function<PointResult(const GridPoint&)>;

/// Escalated recompute for supervisor retries: called instead of
/// `compute` on attempts >= 1 so each retry can try *harder* (tighter
/// solver tolerances, robust::escalate_spec). Must obey the same purity
/// contract as PointFn per (point, attempt).
using PointRetryFn =
    std::function<PointResult(const GridPoint&, unsigned attempt)>;

struct SweepSpec {
  std::string name;         ///< cache namespace; one subdirectory per sweep
  Grid grid;
  /// Canonical description of everything the compute function depends on
  /// besides the point itself: scheme config, solver options, seeds, ...
  /// Folded into every point's cache key.
  std::string fingerprint;
  PointFn compute;
  /// Optional; when absent, retries rerun `compute` unchanged (useful
  /// only against transient failures — crashes, machine-load timeouts).
  PointRetryFn compute_retry;
};

struct SweepOptions {
  /// Cache root directory; empty disables caching entirely.
  std::string cache_dir;
  /// Cap on the worker threads (0 = no cap). The points fan out over at
  /// most one worker per idle core (parallel::fan_out); results are
  /// identical for every value.
  std::size_t jobs = 0;
  /// Optional progress/metrics sink (non-owning): sweep.points_total,
  /// sweep.points_done, sweep.cache_hits, sweep.cache_misses,
  /// sweep.failures, the sweep.point_seconds histogram, and — when the
  /// supervisor is active — robust.retries / robust.timeouts /
  /// robust.crashes / robust.quarantined.
  obs::MetricsRegistry* metrics = nullptr;
  /// Execution supervision for computed points: per-point deadline,
  /// retry policy, crash isolation. Inert by default.
  robust::SupervisorOptions robust{};
  /// Replay journaled failures from an interrupted earlier run instead
  /// of recomputing them (successes always resume via the cache). Only
  /// meaningful with a cache_dir; the result is bit-identical to an
  /// uninterrupted run's.
  bool resume = false;
};

enum class PointStatus { kOk, kFailed };

struct PointOutcome {
  std::size_t index = 0;      ///< grid position (row-major)
  GridPoint point;
  PointResult result;         ///< empty when status == kFailed
  PointStatus status = PointStatus::kOk;
  bool from_cache = false;
  std::string error;          ///< exception message when failed
  /// Typed reason when status == kFailed (kError for a plain exception;
  /// kTimeout / kCrash / ... once the supervisor is configured).
  robust::FailureKind failure = robust::FailureKind::kNone;
  /// Compute attempts made for this point (0 when served from cache or
  /// replayed from the journal).
  unsigned attempts = 0;
  /// True when a resumed run replayed this failure from the journal.
  bool from_journal = false;
};

struct SweepResult {
  std::vector<PointOutcome> points;  ///< grid order, one per point
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;      ///< points actually computed
  std::size_t failures = 0;
  std::size_t retries = 0;           ///< supervisor retry attempts
  std::size_t timeouts = 0;          ///< attempts lost to the deadline
  std::size_t crashes = 0;           ///< attempts lost to a worker crash
  std::size_t quarantined = 0;       ///< corrupt cache entries healed
  std::size_t resumed_failures = 0;  ///< failures replayed from journal
  double wall_seconds = 0.0;         ///< not deterministic

  [[nodiscard]] std::size_t num_points() const { return points.size(); }
  [[nodiscard]] bool all_ok() const { return failures == 0; }
  /// Outcome of the point at `index`; throws btmf::ConfigError if the
  /// point failed (callers that tolerate failures check status first).
  [[nodiscard]] const PointResult& result_at(std::size_t index) const;
};

/// Runs the sweep. Throws btmf::ConfigError on a malformed spec (empty
/// name/grid, missing compute) and btmf::IoError when the cache
/// directory cannot be used; per-point compute failures are *recorded*,
/// never thrown.
SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options = {});

/// Path of the write-ahead checkpoint journal run_sweep keeps for `spec`
/// under `cache_dir` (next to the sweep's cache entries). Exposed for
/// tests and tooling; empty when `cache_dir` is empty.
[[nodiscard]] std::string sweep_journal_path(const SweepSpec& spec,
                                             const std::string& cache_dir);

}  // namespace btmf::sweep
