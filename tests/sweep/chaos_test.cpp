// Chaos tests: the failure-injection half of the robustness story. A
// worker process is SIGKILLed mid-sweep (exactly like an OOM kill) and a
// cache entry is tampered with on disk; in both cases the engine must
// produce bit-identical results to an undisturbed run — resume replays
// the journal, corruption quarantines and recomputes. docs/ROBUSTNESS.md
// documents both paths; the CI chaos smoke job drives the same scenario
// through btmf_tool.
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "btmf/robust/failure.h"
#include "btmf/sweep/cache.h"
#include "btmf/sweep/sweep.h"
#include "btmf/util/error.h"

namespace btmf::sweep {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// 6-point sweep whose second point fails deterministically with a
/// hostile (multi-line) message — the journal must replay it verbatim.
SweepSpec chaotic_spec() {
  SweepSpec spec;
  spec.name = "chaos";
  spec.grid.axis("x", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  spec.fingerprint = "chaos-v1";
  spec.compute = [](const GridPoint& point) {
    if (point.at("x") == 2.0) {
      throw SolverError("diverged at x=2\nresidual 1.7e+12 after 400 steps");
    }
    PointResult result;
    result.values["third"] = point.at("x") / 3.0;
    result.values["square"] = point.at("x") * point.at("x");
    return result;
  };
  return spec;
}

/// Sequential execution: one worker claims the points in grid order, so
/// grid order IS execution order and the chaos kill point is
/// deterministic.
SweepOptions sequential_options(const std::string& cache_dir) {
  SweepOptions options;
  options.cache_dir = cache_dir;
  options.jobs = 1;
  return options;
}

void expect_bit_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.num_points(), b.num_points());
  for (std::size_t i = 0; i < a.num_points(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a.points[i].status, b.points[i].status);
    EXPECT_EQ(a.points[i].failure, b.points[i].failure);
    EXPECT_EQ(a.points[i].error, b.points[i].error);
    ASSERT_EQ(a.points[i].result.values.size(),
              b.points[i].result.values.size());
    for (const auto& [name, value] : a.points[i].result.values) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                std::bit_cast<std::uint64_t>(b.points[i].result.at(name)))
          << "value '" << name << "'";
    }
  }
  EXPECT_EQ(a.failures, b.failures);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(RobustChaosTest, SigkillMidSweepThenResumeIsBitIdentical) {
  const std::string killed_dir = fresh_dir("chaos_killed");
  const std::string reference_dir = fresh_dir("chaos_reference");
  const SweepSpec spec = chaotic_spec();

  // Run the sweep in a forked worker that hard-dies (SIGKILL — no
  // unwinding, no destructors) right after the journal records its 2nd
  // computed point: one success and the failing point are on disk, the
  // rest never ran.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ::setenv("BTMF_CHAOS_KILL_AFTER", "2", 1);
    try {
      (void)run_sweep(chaotic_spec(), sequential_options(killed_dir));
    } catch (...) {
      ::_exit(43);
    }
    ::_exit(42);  // unreachable: the chaos hook must have killed us
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "worker exited normally (status " << status
      << ") instead of dying to the chaos SIGKILL";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_TRUE(fs::exists(sweep_journal_path(spec, killed_dir)));

  // The undisturbed reference run, in its own cache namespace.
  const SweepResult reference =
      run_sweep(spec, sequential_options(reference_dir));
  ASSERT_EQ(reference.failures, 1u);

  // Resume where the killed worker stopped: the success comes from the
  // cache, the journaled failure replays verbatim (message and all), and
  // only the never-started points compute.
  SweepOptions resume_options = sequential_options(killed_dir);
  resume_options.resume = true;
  const SweepResult resumed = run_sweep(spec, resume_options);

  expect_bit_identical(reference, resumed);
  EXPECT_EQ(resumed.resumed_failures, 1u);
  EXPECT_TRUE(resumed.points[1].from_journal);
  EXPECT_EQ(resumed.points[1].failure, robust::FailureKind::kError);
  EXPECT_EQ(resumed.points[1].error,
            "diverged at x=2\nresidual 1.7e+12 after 400 steps");
  EXPECT_EQ(resumed.cache_hits, 1u);       // the point computed pre-kill
  EXPECT_EQ(resumed.cache_misses, 4u);     // the four never-started points
}

TEST(RobustChaosTest, ResumeWithoutResumeFlagRecomputesFailures) {
  // Safety check on the flag's semantics: a plain rerun (no --resume)
  // truncates the journal and recomputes failed points from scratch.
  const std::string dir = fresh_dir("chaos_no_resume");
  const SweepSpec spec = chaotic_spec();
  const SweepResult first = run_sweep(spec, sequential_options(dir));
  ASSERT_EQ(first.failures, 1u);
  const SweepResult second = run_sweep(spec, sequential_options(dir));
  EXPECT_EQ(second.resumed_failures, 0u);
  EXPECT_FALSE(second.points[1].from_journal);
  EXPECT_EQ(second.points[1].attempts, 1u);  // actually recomputed
  expect_bit_identical(first, second);
}
#endif  // __unix__ || __APPLE__

TEST(RobustChaosTest, TamperedCacheEntryIsQuarantinedAndRecomputed) {
  const std::string dir = fresh_dir("chaos_tamper");
  const SweepSpec spec = chaotic_spec();
  const SweepResult cold = run_sweep(spec, sequential_options(dir));

  // Tamper with one stored entry: chop off the "end\n" terminator, as a
  // torn write or bit rot would. The file still claims to be this key's,
  // so it must be treated as corruption, not a benign miss.
  DiskCache cache(dir);
  const CacheKey key{spec.name, spec.fingerprint,
                     spec.grid.point(2).canonical()};
  const std::string entry = cache.entry_path(key);
  ASSERT_TRUE(fs::exists(entry));
  fs::resize_file(entry, fs::file_size(entry) - 4);

  const SweepResult healed = run_sweep(spec, sequential_options(dir));
  EXPECT_EQ(healed.quarantined, 1u);
  EXPECT_EQ(healed.cache_misses, 2u);  // the failing point + the healed one
  expect_bit_identical(cold, healed);
  // The bad bytes were preserved for inspection, and the slot is clean.
  EXPECT_TRUE(fs::exists(entry + ".quarantined"));
  const SweepResult warm = run_sweep(spec, sequential_options(dir));
  EXPECT_EQ(warm.quarantined, 0u);
  EXPECT_EQ(warm.cache_hits, 5u);
}

}  // namespace
}  // namespace btmf::sweep
