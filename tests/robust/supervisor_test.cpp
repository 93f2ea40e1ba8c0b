#include "btmf/robust/supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#endif

#include "btmf/obs/metrics.h"
#include "btmf/robust/failure.h"
#include "btmf/robust/isolate.h"
#include "btmf/robust/watchdog.h"
#include "btmf/util/error.h"

namespace btmf::robust {
namespace {

SupervisorOptions retrying(unsigned retries) {
  SupervisorOptions options;
  options.retries = retries;
  return options;
}

TEST(RobustSupervisorTest, InactiveOptionsRunInline) {
  const SupervisorOptions options;  // default: fully inert
  const auto caller = std::this_thread::get_id();
  const SuperviseOutcome outcome = supervise(
      [&](const TaskContext& context) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(context.attempt, 0u);
        return Values{{"v", 7.0}};
      },
      options, /*key=*/1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_DOUBLE_EQ(outcome.values.at("v"), 7.0);
}

TEST(RobustSupervisorTest, InactiveOptionsStillClassifyExceptions) {
  const SuperviseOutcome outcome = supervise(
      [](const TaskContext&) -> Values { throw SolverError("diverged"); },
      SupervisorOptions{}, 1);
  EXPECT_EQ(outcome.failure.kind, FailureKind::kError);
  EXPECT_EQ(outcome.failure.message, "diverged");
  EXPECT_EQ(outcome.attempts, 1u);
}

TEST(RobustSupervisorTest, RetriesUntilSuccessAndCountsAttempts) {
  obs::MetricsRegistry metrics;
  SupervisorOptions options = retrying(5);
  options.metrics = &metrics;
  const SuperviseOutcome outcome = supervise(
      [](const TaskContext& context) -> Values {
        if (context.attempt < 2) throw SolverError("transient");
        return Values{{"v", static_cast<double>(context.attempt)}};
      },
      options, 1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 3u);
  EXPECT_DOUBLE_EQ(outcome.values.at("v"), 2.0);
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counters.at("robust.retries"), 2u);
}

TEST(RobustSupervisorTest, ExhaustedRetriesReportTheLastFailure) {
  const SuperviseOutcome outcome = supervise(
      [](const TaskContext&) -> Values { throw SolverError("always"); },
      retrying(2), 1);
  EXPECT_EQ(outcome.failure.kind, FailureKind::kError);
  EXPECT_EQ(outcome.attempts, 3u);  // 1 try + 2 retries
}

TEST(RobustSupervisorTest, UnsupportedIsPermanentNoRetry) {
  std::atomic<int> calls{0};
  const SuperviseOutcome outcome = supervise(
      [&](const TaskContext&) -> Values {
        calls.fetch_add(1);
        throw ConfigError("shards must be 1");
      },
      retrying(5), 1);
  EXPECT_EQ(outcome.failure.kind, FailureKind::kUnsupported);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(calls.load(), 1);
}

TEST(RobustSupervisorTest, TimeoutsCountAndCooperativeRetryRecovers) {
  // The first attempt overruns and polls nothing: it is abandoned at the
  // deadline, and the retry, which finishes in time, recovers.
  static std::atomic<bool> first_done{false};
  first_done = false;
  obs::MetricsRegistry metrics;
  SupervisorOptions options = retrying(1);
  options.timeout_s = 0.05;
  options.metrics = &metrics;
  const SuperviseOutcome outcome = supervise(
      [](const TaskContext& context) -> Values {
        if (context.attempt == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
          first_done = true;
        }
        return Values{{"v", 3.5}};
      },
      options, 1);
  for (int i = 0; i < 200 && !first_done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(first_done);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.timeouts, 1u);
  EXPECT_DOUBLE_EQ(outcome.values.at("v"), 3.5);
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counters.at("robust.timeouts"), 1u);
}

TEST(RobustSupervisorTest, OneDeadlineRuleInBothModes) {
  // The same overrun is a timeout in-process and in a forked worker: the
  // watchdog detaches its worker at the deadline, as run_isolated kills
  // its child there.
  static std::atomic<bool> worker_done{false};
  worker_done = false;
  const Task task = [](const TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    worker_done = true;
    return Values{{"v", 1.0}};
  };
  SupervisorOptions options;
  options.timeout_s = 0.2;
  const auto start = std::chrono::steady_clock::now();
  const SuperviseOutcome in_process = supervise(task, options, 1);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(in_process.failure.kind, FailureKind::kTimeout);
  EXPECT_EQ(in_process.timeouts, 1u);
  EXPECT_LT(elapsed, 0.6);
  // Let the abandoned worker finish before the next attempt forks and the
  // test ends, so leak checkers see a quiescent process.
  for (int i = 0; i < 200 && !worker_done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(worker_done);
#if defined(__unix__) || defined(__APPLE__)
  options.isolate = true;
  const SuperviseOutcome isolated = supervise(task, options, 1);
  EXPECT_EQ(isolated.failure.kind, FailureKind::kTimeout);
  EXPECT_EQ(isolated.timeouts, 1u);
#endif
}

TEST(RobustSupervisorTest, AbandonedAttemptSurvivesTaskTeardown) {
  // Regression: supervise() must hand the watchdog an owning copy of the
  // Task — after abandonment the caller destroys the Task (and whatever
  // it captured) while the runaway worker is still executing it. ASan
  // flags a reference-capture regression here as a use-after-free.
  static std::atomic<bool> worker_done{false};
  worker_done = false;
  SupervisorOptions options;
  options.timeout_s = 0.05;
  SuperviseOutcome outcome;
  {
    const std::string payload(1024, 'y');
    const Task task = [payload](const TaskContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      Values values{{"len", static_cast<double>(payload.size())}};
      worker_done = true;
      return values;
    };
    outcome = supervise(task, options, /*key=*/1);
  }  // the Task and its captures die while the abandoned worker runs
  EXPECT_EQ(outcome.failure.kind, FailureKind::kTimeout);
  EXPECT_EQ(outcome.timeouts, 1u);
  for (int i = 0; i < 200 && !worker_done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(worker_done);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(RobustSupervisorTest, IsolatedCrashIsRetriedInAFreshWorker) {
  obs::MetricsRegistry metrics;
  SupervisorOptions options = retrying(1);
  options.isolate = true;
  options.metrics = &metrics;
  const SuperviseOutcome outcome = supervise(
      [](const TaskContext& context) -> Values {
        // Each attempt forks anew, so branching on the attempt number is
        // how a "crashes once, then works" worker looks to the parent.
        if (context.attempt == 0) ::raise(SIGSEGV);
        return Values{{"v", 9.75}};
      },
      options, 1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.crashes, 1u);
  EXPECT_DOUBLE_EQ(outcome.values.at("v"), 9.75);
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counters.at("robust.crashes"), 1u);
}
#endif

TEST(RobustSupervisorTest, RefusesAnUnboundedDeadlineBeforeAnyAttempt) {
  // Past kMaxTimeoutS, or not finite, a deadline used to overflow the
  // clocks' integer nanoseconds, and every attempt timed out at once in
  // both modes. Now it is a ConfigError, and nothing runs.
  static std::atomic<int> calls{0};
  calls = 0;
  const Task task = [](const TaskContext&) {
    calls.fetch_add(1);
    return Values{{"v", 1.0}};
  };
  const std::function<Values()> fn = [] {
    calls.fetch_add(1);
    return Values{{"v", 1.0}};
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double timeout_s :
       {kInf, -kInf, std::numeric_limits<double>::quiet_NaN(), 1e20,
        2.0 * kMaxTimeoutS}) {
    for (const bool isolate : {false, true}) {
      SupervisorOptions options = retrying(2);
      options.timeout_s = timeout_s;
      options.isolate = isolate;
      EXPECT_THROW((void)supervise(task, options, 1), ConfigError)
          << timeout_s << (isolate ? " isolated" : "");
    }
    EXPECT_THROW((void)run_with_deadline(fn, timeout_s), ConfigError)
        << timeout_s;
    EXPECT_THROW((void)run_isolated(fn, timeout_s), ConfigError) << timeout_s;
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(RobustSupervisorTest, AOneWeekDeadlineStillRunsTheAttempt) {
  // The cap itself is a working deadline in both modes; so are a negative
  // one and zero, which mean none.
  const Task task = [](const TaskContext&) { return Values{{"v", 2.5}}; };
  for (const double timeout_s : {kMaxTimeoutS, 0.0, -1.0}) {
    SupervisorOptions options;
    options.timeout_s = timeout_s;
    const SuperviseOutcome in_process = supervise(task, options, 1);
    ASSERT_TRUE(in_process.ok()) << timeout_s << ": "
                                 << in_process.failure.message;
    EXPECT_DOUBLE_EQ(in_process.values.at("v"), 2.5);
#if defined(__unix__) || defined(__APPLE__)
    options.isolate = true;
    const SuperviseOutcome isolated = supervise(task, options, 1);
    ASSERT_TRUE(isolated.ok()) << timeout_s << ": "
                               << isolated.failure.message;
    EXPECT_DOUBLE_EQ(isolated.values.at("v"), 2.5);
#endif
  }
}

TEST(RobustSupervisorTest, RetriesRunBackToBack) {
  const auto start = std::chrono::steady_clock::now();
  const SuperviseOutcome outcome = supervise(
      [](const TaskContext&) -> Values { throw SolverError("always"); },
      retrying(3), 1);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(outcome.failure.kind, FailureKind::kError);
  EXPECT_EQ(outcome.attempts, 4u);
  EXPECT_LT(elapsed, 0.3);
}

}  // namespace
}  // namespace btmf::robust
