#include "btmf/sweep/sweep.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#endif

#include "btmf/parallel/fan_out.h"
#include "btmf/robust/checkpoint.h"
#include "btmf/util/error.h"
#include "btmf/util/stopwatch.h"
#include "btmf/util/strings.h"

namespace btmf::sweep {

namespace {

/// Resolved-up-front metric ids (the registry hot path carries ids, not
/// names); all-zero and unused when no registry is attached.
struct SweepMetrics {
  obs::MetricsRegistry* registry = nullptr;
  obs::MetricId total = 0;
  obs::MetricId done = 0;
  obs::MetricId hits = 0;
  obs::MetricId misses = 0;
  obs::MetricId failures = 0;
  obs::MetricId seconds = 0;
  obs::MetricId quarantined = 0;

  explicit SweepMetrics(obs::MetricsRegistry* r) : registry(r) {
    if (registry == nullptr) return;
    total = registry->gauge("sweep.points_total");
    done = registry->counter("sweep.points_done");
    hits = registry->counter("sweep.cache_hits");
    misses = registry->counter("sweep.cache_misses");
    failures = registry->counter("sweep.failures");
    seconds = registry->histogram("sweep.point_seconds");
    quarantined = registry->counter("robust.quarantined");
  }
};

/// Identity binding a journal to one (sweep, fingerprint, grid): resuming
/// after the spec or the grid changed must ignore the stale journal.
std::uint64_t journal_identity(const SweepSpec& spec) {
  std::string material = "journal\nsweep ";
  material += spec.name;
  material += "\nspec ";
  material += spec.fingerprint;
  for (const Axis& axis : spec.grid.axes()) {
    material += "\naxis ";
    material += axis.name;
    for (const double v : axis.values) {
      material += ' ';
      material += util::format_double_exact(v);
    }
  }
  return fnv1a64(material);
}

/// Chaos hook for the crash-resume tests and the CI chaos smoke job:
/// BTMF_CHAOS_KILL_AFTER=<n> hard-kills this process (SIGKILL — no
/// unwinding, exactly like an OOM kill or a power cut) once the journal
/// has recorded its n-th computed point. 0/unset = disabled.
std::uint64_t chaos_kill_after() {
  const char* env = std::getenv("BTMF_CHAOS_KILL_AFTER");
  if (env == nullptr || *env == '\0') return 0;
  return static_cast<std::uint64_t>(
      util::parse_int(env, "BTMF_CHAOS_KILL_AFTER"));
}

[[maybe_unused]] void chaos_kill_self() {
#if defined(__unix__) || defined(__APPLE__)
  ::raise(SIGKILL);
#else
  std::abort();
#endif
}

}  // namespace

const PointResult& SweepResult::result_at(std::size_t index) const {
  if (index >= points.size()) {
    throw ConfigError("sweep result index " + std::to_string(index) +
                      " out of range");
  }
  const PointOutcome& outcome = points[index];
  if (outcome.status != PointStatus::kOk) {
    throw ConfigError("sweep point " + outcome.point.canonical() +
                      " failed: " + outcome.error);
  }
  return outcome.result;
}

std::string sweep_journal_path(const SweepSpec& spec,
                               const std::string& cache_dir) {
  if (cache_dir.empty()) return {};
  return cache_dir + "/" + spec.name + "/journal.wal";
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  if (spec.name.empty()) throw ConfigError("sweep spec needs a name");
  if (!spec.compute) {
    throw ConfigError("sweep '" + spec.name + "' has no compute function");
  }
  const std::size_t n = spec.grid.size();
  if (n == 0) {
    throw ConfigError("sweep '" + spec.name + "' has an empty grid");
  }

  std::optional<DiskCache> cache;
  if (!options.cache_dir.empty()) cache.emplace(options.cache_dir);

  SweepMetrics metrics(options.metrics);
  if (metrics.registry != nullptr) {
    metrics.registry->set(metrics.total, static_cast<double>(n));
  }

  // Supervisor configuration for computed points. The sweep's metrics
  // registry doubles as the supervisor's sink, so robust.* counters land
  // next to the sweep.* ones.
  robust::SupervisorOptions supervisor = options.robust;
  supervisor.metrics = options.metrics;

  // The write-ahead journal lives next to the sweep's cache entries. Only
  // *computed* points are journaled — the cache is the checkpoint for
  // successes, so a fully warm rerun appends nothing and pays nothing.
  std::unique_ptr<robust::CheckpointJournal> journal;
  std::vector<const robust::CheckpointJournal::Entry*> replay(n, nullptr);
  std::vector<robust::CheckpointJournal::Entry> journaled;
  if (cache.has_value()) {
    const std::string journal_file =
        sweep_journal_path(spec, options.cache_dir);
    const std::uint64_t identity = journal_identity(spec);
    if (options.resume) {
      journaled = robust::CheckpointJournal::load(journal_file, identity);
      for (const auto& entry : journaled) {
        // Only failures replay from the journal (successes replay from
        // the cache); last write wins if an index somehow repeats.
        if (entry.index < n && entry.kind != robust::FailureKind::kNone) {
          replay[entry.index] = &entry;
        }
      }
    }
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(journal_file).parent_path(), ec);
    if (ec) {
      throw IoError("cannot create sweep journal directory for '" +
                    journal_file + "': " + ec.message());
    }
    journal = std::make_unique<robust::CheckpointJournal>(
        journal_file, identity, /*fresh=*/!options.resume);
  }
  const std::uint64_t kill_after = chaos_kill_after();

  util::Stopwatch timer;
  SweepResult sweep;
  sweep.points.resize(n);

  // Aggregate counters are relaxed atomics: per-point order is irrelevant
  // and the fan_out join below is the synchronisation point.
  std::atomic<std::size_t> hits{0}, misses{0}, failures{0};
  std::atomic<std::size_t> retries{0}, timeouts{0}, crashes{0};
  std::atomic<std::size_t> quarantined{0}, resumed{0};

  const auto run_point = [&](std::size_t i, std::size_t /*worker*/) {
    PointOutcome& outcome = sweep.points[i];
    outcome.index = i;
    outcome.point = spec.grid.point(i);

    CacheKey key;
    std::optional<PointResult> cached;
    if (cache.has_value()) {
      key = CacheKey{spec.name, spec.fingerprint, outcome.point.canonical()};
      PointResult stored;
      switch (cache->lookup(key, &stored)) {
        case CacheLookup::kHit:
          cached = std::move(stored);
          break;
        case CacheLookup::kMiss:
          break;
        case CacheLookup::kCorrupt:
          // Self-healing: move the bad entry aside and recompute into a
          // clean slot. The *result* is unaffected — only the corruption
          // counter and the quarantined file betray that it happened.
          cache->quarantine(key);
          quarantined.fetch_add(1, std::memory_order_relaxed);
          if (metrics.registry != nullptr) {
            metrics.registry->add(metrics.quarantined);
          }
          break;
      }
    }
    if (cached.has_value()) {
      outcome.result = *std::move(cached);
      outcome.from_cache = true;
      hits.fetch_add(1, std::memory_order_relaxed);
      if (metrics.registry != nullptr) metrics.registry->add(metrics.hits);
    } else if (const robust::CheckpointJournal::Entry* entry = replay[i]) {
      // A resumed run replays the journaled failure verbatim: same kind,
      // same message, no recompute — the failure table of a resumed
      // report is byte-identical to the uninterrupted run's.
      outcome.status = PointStatus::kFailed;
      outcome.failure = entry->kind;
      outcome.error = entry->message;
      outcome.attempts = 0;
      outcome.from_journal = true;
      failures.fetch_add(1, std::memory_order_relaxed);
      resumed.fetch_add(1, std::memory_order_relaxed);
      if (metrics.registry != nullptr) {
        metrics.registry->add(metrics.failures);
      }
    } else {
      util::Stopwatch point_timer;
      // The task owns everything it touches (point and compute functions
      // by value): a watchdog worker that ignores cancellation is detached
      // and can outlive this frame — and run_sweep itself — so it must
      // never hold references into `spec` or `outcome`.
      const robust::Task task =
          [point = outcome.point, compute = spec.compute,
           compute_retry =
               spec.compute_retry](const robust::TaskContext& context) {
            PointResult result = context.attempt > 0 && compute_retry
                                     ? compute_retry(point, context.attempt)
                                     : compute(point);
            return std::move(result.values);
          };
      const std::uint64_t task_key =
          cache.has_value()
              ? key.hash()
              : fnv1a64(spec.name + "|" + outcome.point.canonical());
      robust::SuperviseOutcome supervised =
          robust::supervise(task, supervisor, task_key);
      outcome.attempts = supervised.attempts;
      retries.fetch_add(supervised.attempts > 0
                            ? supervised.attempts - 1
                            : 0,
                        std::memory_order_relaxed);
      timeouts.fetch_add(supervised.timeouts, std::memory_order_relaxed);
      crashes.fetch_add(supervised.crashes, std::memory_order_relaxed);
      if (supervised.ok()) {
        outcome.result.values = std::move(supervised.values);
        if (cache.has_value()) cache->store(key, outcome.result);
      } else {
        outcome.status = PointStatus::kFailed;
        outcome.failure = supervised.failure.kind;
        outcome.error = supervised.failure.message;
        outcome.result = PointResult{};
        failures.fetch_add(1, std::memory_order_relaxed);
        if (metrics.registry != nullptr) {
          metrics.registry->add(metrics.failures);
        }
      }
      misses.fetch_add(1, std::memory_order_relaxed);
      if (metrics.registry != nullptr) {
        metrics.registry->add(metrics.misses);
        metrics.registry->observe(metrics.seconds, point_timer.seconds());
      }
      if (journal != nullptr) {
        journal->append({i, outcome.failure, outcome.attempts,
                         outcome.error});
        if (kill_after > 0 && journal->appended() >= kill_after) {
          chaos_kill_self();
        }
      }
    }
    if (metrics.registry != nullptr) metrics.registry->add(metrics.done);
  };

  // Results are slot-indexed, so any spread of points over workers
  // yields the same SweepResult.
  parallel::fan_out(n, options.jobs, run_point);

  sweep.cache_hits = hits.load();
  sweep.cache_misses = misses.load();
  sweep.failures = failures.load();
  sweep.retries = retries.load();
  sweep.timeouts = timeouts.load();
  sweep.crashes = crashes.load();
  sweep.quarantined = quarantined.load();
  sweep.resumed_failures = resumed.load();
  sweep.wall_seconds = timer.seconds();
  return sweep;
}

}  // namespace btmf::sweep
