#include "btmf/sweep/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "btmf/obs/metrics.h"
#include "btmf/parallel/fan_out.h"
#include "btmf/robust/failure.h"
#include "btmf/util/error.h"

namespace btmf::sweep {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// 5 x 2 grid of cheap arithmetic points.
SweepSpec arithmetic_spec(std::string fingerprint = "v1") {
  SweepSpec spec;
  spec.name = "arith";
  spec.grid.axis("x", {1.0, 2.0, 3.0, 4.0, 5.0}).axis("y", {0.25, 0.5});
  spec.fingerprint = std::move(fingerprint);
  spec.compute = [](const GridPoint& point) {
    PointResult result;
    result.values["prod"] = point.at("x") * point.at("y");
    result.values["ratio"] = point.at("x") / 3.0;  // non-terminating binary
    return result;
  };
  return spec;
}

/// Bit-exact equality of two sweep results (values AND statuses).
void expect_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.num_points(), b.num_points());
  for (std::size_t i = 0; i < a.num_points(); ++i) {
    EXPECT_EQ(a.points[i].status, b.points[i].status) << "point " << i;
    ASSERT_EQ(a.points[i].result.values.size(),
              b.points[i].result.values.size());
    for (const auto& [name, value] : a.points[i].result.values) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                std::bit_cast<std::uint64_t>(b.points[i].result.at(name)))
          << "point " << i << " value '" << name << "'";
    }
  }
}

TEST(SweepEngine, ComputesEveryPointInGridOrder) {
  const SweepSpec spec = arithmetic_spec();
  const SweepResult sweep = run_sweep(spec);
  ASSERT_EQ(sweep.num_points(), 10u);
  EXPECT_TRUE(sweep.all_ok());
  EXPECT_EQ(sweep.cache_hits, 0u);
  EXPECT_EQ(sweep.cache_misses, 10u);
  for (std::size_t i = 0; i < sweep.num_points(); ++i) {
    const PointOutcome& outcome = sweep.points[i];
    EXPECT_EQ(outcome.index, i);
    EXPECT_FALSE(outcome.from_cache);
    EXPECT_DOUBLE_EQ(outcome.result.at("prod"),
                     outcome.point.at("x") * outcome.point.at("y"));
  }
  // Slot 0 is the first grid point (x = 1, y = 0.25) regardless of which
  // worker computed it.
  EXPECT_DOUBLE_EQ(sweep.points[0].point.at("x"), 1.0);
  EXPECT_DOUBLE_EQ(sweep.points[0].point.at("y"), 0.25);
  EXPECT_DOUBLE_EQ(sweep.result_at(9).at("prod"), 2.5);
}

TEST(SweepEngine, ColdThenWarmCacheServesIdenticalResults) {
  SweepOptions options;
  options.cache_dir = fresh_dir("sweep_engine_warm");
  const SweepSpec spec = arithmetic_spec();

  const SweepResult cold = run_sweep(spec, options);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 10u);

  const SweepResult warm = run_sweep(spec, options);
  EXPECT_EQ(warm.cache_hits, 10u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_TRUE(warm.points[0].from_cache);
  expect_identical(cold, warm);

  // The warm run is also bit-identical to a cache-less run: serving from
  // disk is observationally equivalent to recomputing.
  expect_identical(run_sweep(spec), warm);

  // Full supervision (deadline, retries, resume) on a warm cache does no
  // work: every point is a hit, nothing computes, the journal gains no
  // byte, and the result is bit-identical to the inert warm run.
  std::atomic<int> computes{0};
  SweepSpec counted = spec;
  counted.compute = [&computes, compute = spec.compute](const GridPoint& p) {
    computes.fetch_add(1);
    return compute(p);
  };
  SweepOptions supervised = options;
  supervised.robust.timeout_s = 30.0;
  supervised.robust.retry.retries = 2;
  supervised.resume = true;
  const std::string journal =
      sweep_journal_path(counted, options.cache_dir);
  const std::uintmax_t journal_bytes = fs::file_size(journal);
  const SweepResult guarded = run_sweep(counted, supervised);
  EXPECT_EQ(guarded.cache_hits, 10u);
  EXPECT_EQ(guarded.cache_misses, 0u);
  EXPECT_EQ(computes.load(), 0);
  EXPECT_EQ(fs::file_size(journal), journal_bytes);
  expect_identical(warm, guarded);
}

TEST(SweepEngine, ResumesAfterInterruptWithPartialCache) {
  SweepOptions options;
  options.cache_dir = fresh_dir("sweep_engine_resume");

  // Simulate an interrupted earlier run: only a sub-grid got cached.
  SweepSpec partial = arithmetic_spec();
  partial.grid = Grid();
  partial.grid.axis("x", {1.0, 2.0, 3.0}).axis("y", {0.25, 0.5});
  const SweepResult first = run_sweep(partial, options);
  EXPECT_EQ(first.cache_misses, 6u);

  // The resumed full run recomputes exactly the missing points...
  const SweepSpec spec = arithmetic_spec();
  const SweepResult resumed = run_sweep(spec, options);
  EXPECT_EQ(resumed.cache_hits, 6u);
  EXPECT_EQ(resumed.cache_misses, 4u);

  // ...and is bit-identical to a never-interrupted cold run.
  expect_identical(run_sweep(spec), resumed);
}

TEST(SweepEngine, ShardCountDoesNotChangeResults) {
  // However many workers split the grid between them, every point lands
  // in its own slot with the same bits.
  const SweepSpec spec = arithmetic_spec();
  const SweepResult baseline = run_sweep(spec);
  for (const std::size_t jobs : {1u, 3u, 7u, 64u}) {
    SweepOptions options;
    options.jobs = jobs;
    expect_identical(baseline, run_sweep(spec, options));
  }
}

TEST(SweepEngine, DedicatedPoolMatchesGlobalPool) {
  // A sweep capped at 3 workers matches the uncapped default (jobs = 0).
  SweepOptions options;
  options.jobs = 3;
  expect_identical(run_sweep(arithmetic_spec()),
                   run_sweep(arithmetic_spec(), options));
}

std::size_t cores() {
  return std::max(1U, std::thread::hardware_concurrency());
}

/// Raises `highest` to `value` if it is larger.
template <typename T>
void record_max(std::atomic<T>& highest, T value) {
  T seen = highest.load();
  while (value > seen && !highest.compare_exchange_weak(seen, value)) {
  }
}

TEST(SweepEngine, JobsNeverChangeResultsOrRunMorePointsThanCores) {
  // Each point sleeps so points that can overlap do; `jobs` above the
  // core count still runs at most one point per core.
  std::atomic<std::size_t> running{0};
  std::atomic<std::size_t> highest{0};
  SweepSpec spec = arithmetic_spec();
  const PointFn arithmetic = spec.compute;
  spec.compute = [&](const GridPoint& point) {
    record_max(highest, ++running);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    --running;
    return arithmetic(point);
  };
  const SweepResult baseline = run_sweep(arithmetic_spec());
  for (const std::size_t jobs : {std::size_t{0}, std::size_t{1},
                                 std::size_t{2}, std::size_t{3},
                                 cores() + 2}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    highest = 0;
    SweepOptions options;
    options.jobs = jobs;
    expect_identical(baseline, run_sweep(spec, options));
    EXPECT_LE(highest.load(), cores());
    if (jobs > 0) {
      EXPECT_LE(highest.load(), jobs);
    }
  }
}

TEST(SweepEngine, PointsHoldEveryCoreSoNestedFanOutsRunSerially) {
  // jobs = cores over at least as many points: the sweep's workers hold
  // every core, so an evaluation that fans out inside a point (the
  // stochastic-epidemic backend) finds none idle and starts no helper.
  SweepSpec spec;
  spec.name = "cores";
  std::vector<double> xs(2 * cores());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  spec.grid.axis("x", xs);
  spec.fingerprint = "v1";
  std::atomic<std::ptrdiff_t> highest_idle{-1000};
  spec.compute = [&](const GridPoint& point) {
    record_max(highest_idle, parallel::detail::idle_cores());
    PointResult result;
    result.values["x"] = point.at("x");
    return result;
  };
  SweepOptions options;
  options.jobs = cores();
  EXPECT_TRUE(run_sweep(spec, options).all_ok());
  EXPECT_EQ(highest_idle.load(), 0);
}

TEST(SweepEngine, FailedPointIsRecordedNotFatalAndNotCached) {
  SweepSpec spec = arithmetic_spec();
  spec.compute = [](const GridPoint& point) {
    if (point.at("x") == 3.0 && point.at("y") == 0.5) {
      throw ConfigError("deliberate failure");
    }
    PointResult result;
    result.values["prod"] = point.at("x") * point.at("y");
    return result;
  };
  SweepOptions options;
  options.cache_dir = fresh_dir("sweep_engine_failure");

  const SweepResult sweep = run_sweep(spec, options);
  EXPECT_EQ(sweep.failures, 1u);
  EXPECT_FALSE(sweep.all_ok());

  std::size_t failed_index = 0;
  for (const PointOutcome& outcome : sweep.points) {
    if (outcome.status == PointStatus::kFailed) {
      failed_index = outcome.index;
      EXPECT_NE(outcome.error.find("deliberate failure"), std::string::npos);
    } else {
      EXPECT_DOUBLE_EQ(outcome.result.at("prod"),
                       outcome.point.at("x") * outcome.point.at("y"));
    }
  }
  EXPECT_THROW((void)sweep.result_at(failed_index), ConfigError);
  EXPECT_NO_THROW(
      (void)sweep.result_at((failed_index + 1) % sweep.num_points()));

  // Failures are never cached: the rerun serves the 9 good points from
  // disk and retries (and re-fails) only the bad one.
  const SweepResult rerun = run_sweep(spec, options);
  EXPECT_EQ(rerun.cache_hits, 9u);
  EXPECT_EQ(rerun.cache_misses, 1u);
  EXPECT_EQ(rerun.failures, 1u);
}

TEST(SweepEngine, FingerprintChangeInvalidatesCache) {
  SweepOptions options;
  options.cache_dir = fresh_dir("sweep_engine_fingerprint");
  EXPECT_EQ(run_sweep(arithmetic_spec("v1"), options).cache_misses, 10u);
  EXPECT_EQ(run_sweep(arithmetic_spec("v1"), options).cache_hits, 10u);

  // Same sweep name, changed configuration fingerprint: full recompute.
  const SweepResult changed = run_sweep(arithmetic_spec("v2"), options);
  EXPECT_EQ(changed.cache_hits, 0u);
  EXPECT_EQ(changed.cache_misses, 10u);
}

TEST(SweepEngine, StreamsProgressThroughMetricsRegistry) {
  obs::MetricsRegistry metrics;
  SweepOptions options;
  options.cache_dir = fresh_dir("sweep_engine_metrics");
  options.metrics = &metrics;
  run_sweep(arithmetic_spec(), options);

  const obs::MetricsSnapshot cold = metrics.snapshot();
  EXPECT_DOUBLE_EQ(cold.gauges.at("sweep.points_total"), 10.0);
  EXPECT_EQ(cold.counters.at("sweep.points_done"), 10u);
  EXPECT_EQ(cold.counters.at("sweep.cache_hits"), 0u);
  EXPECT_EQ(cold.counters.at("sweep.cache_misses"), 10u);
  EXPECT_EQ(cold.counters.at("sweep.failures"), 0u);
  EXPECT_EQ(cold.histograms.at("sweep.point_seconds").count, 10u);

  run_sweep(arithmetic_spec(), options);
  const obs::MetricsSnapshot warm = metrics.snapshot();
  EXPECT_EQ(warm.counters.at("sweep.points_done"), 20u);
  EXPECT_EQ(warm.counters.at("sweep.cache_hits"), 10u);
  EXPECT_EQ(warm.counters.at("sweep.cache_misses"), 10u);
}

TEST(SweepEngine, MalformedSpecThrows) {
  SweepSpec nameless = arithmetic_spec();
  nameless.name.clear();
  EXPECT_THROW(run_sweep(nameless), ConfigError);

  SweepSpec gridless = arithmetic_spec();
  gridless.grid = Grid();
  EXPECT_THROW(run_sweep(gridless), ConfigError);

  SweepSpec computeless = arithmetic_spec();
  computeless.compute = nullptr;
  EXPECT_THROW(run_sweep(computeless), ConfigError);
}

TEST(SweepEngine, ResultAtOutOfRangeThrows) {
  const SweepResult sweep = run_sweep(arithmetic_spec());
  EXPECT_THROW((void)sweep.result_at(sweep.num_points()), ConfigError);
}

TEST(SweepEngine, AbandonedPointOutlivesSpecAndResultSafely) {
  // Regression for the abandoned-worker use-after-free: a point that
  // ignores its deadline is abandoned, run_sweep returns, and the spec
  // and result go out of scope while the runaway thread still executes
  // the task chain. The chain is copied by value end to end, so under
  // ASan this passes; a reference capture of `spec`/`outcome` anywhere
  // in sweep/supervisor/watchdog would fault here.
  static std::atomic<bool> worker_done{false};
  worker_done = false;
  {
    SweepSpec spec;
    spec.name = "abandon";
    spec.grid.axis("x", {2.0});
    spec.fingerprint = "abandon-v1";
    spec.compute = [](const GridPoint& point) {
      // Never polls the cancel token: can only be abandoned.
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      PointResult result;
      result.values["v"] = point.at("x");
      worker_done = true;
      return result;
    };
    SweepOptions options;
    options.robust.timeout_s = 0.05;
    options.robust.grace_s = 0.05;
    const SweepResult sweep = run_sweep(spec, options);
    ASSERT_EQ(sweep.num_points(), 1u);
    EXPECT_EQ(sweep.points[0].status, PointStatus::kFailed);
    EXPECT_EQ(sweep.points[0].failure, robust::FailureKind::kTimeout);
    EXPECT_EQ(sweep.timeouts, 1u);
  }  // spec (compute fn) and the result the task referenced die here
  for (int i = 0; i < 200 && !worker_done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(worker_done);
}

}  // namespace
}  // namespace btmf::sweep
