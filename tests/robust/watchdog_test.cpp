#include "btmf/robust/watchdog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "btmf/robust/failure.h"
#include "btmf/util/error.h"

namespace btmf::robust {
namespace {

TEST(RobustWatchdogTest, NoDeadlineRunsInlineWithoutAToken) {
  // timeout_s <= 0 must be the zero-overhead path: the calling thread,
  // indistinguishable from unsupervised code.
  const auto caller = std::this_thread::get_id();
  const Attempt result = run_with_deadline(
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return Values{{"x", 1.5}};
      },
      0.0);
  ASSERT_TRUE(result.failure.ok());
  EXPECT_DOUBLE_EQ(result.values.at("x"), 1.5);
}

TEST(RobustWatchdogTest, FastFunctionBeatsTheDeadline) {
  const Attempt result = run_with_deadline(
      [] { return Values{{"x", 2.0}, {"y", 0.1}}; }, 30.0);
  ASSERT_TRUE(result.failure.ok());
  EXPECT_DOUBLE_EQ(result.values.at("y"), 0.1);
}

TEST(RobustWatchdogTest, UncooperativeWorkerIsAbandoned) {
  const Attempt result = run_with_deadline(
      [] {
        // Cannot be stopped, only abandoned at the deadline.
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return Values{{"late", 1.0}};
      },
      0.05);
  EXPECT_EQ(result.failure.kind, FailureKind::kTimeout);
  EXPECT_TRUE(result.values.empty());
  // Let the runaway worker finish before the test binary exits so leak
  // checkers see a quiescent process.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
}

TEST(RobustWatchdogTest, AbandonedWorkerOwnsItsTaskChain) {
  // Regression: an abandoned worker runs a *copy* of `fn` after the
  // caller's frame — including the original std::function and everything
  // it captured — is gone. Under ASan a capture-by-reference regression
  // anywhere in the chain turns this test into a hard use-after-free.
  static std::atomic<bool> worker_done{false};
  worker_done = false;
  Attempt result;
  {
    const std::string payload(1024, 'x');  // heap-backed caller local
    const std::function<Values()> fn = [payload] {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      // Touched after the caller's scope below has been destroyed.
      Values values{{"len", static_cast<double>(payload.size())}};
      worker_done = true;
      return values;
    };
    result = run_with_deadline(fn, 0.05);
  }  // `payload` and `fn` die here while the abandoned worker still runs
  EXPECT_EQ(result.failure.kind, FailureKind::kTimeout);
  // Let the runaway worker finish its copy of the chain before the test
  // ends, so the access above actually happens (and quiesces for leak
  // checkers).
  for (int i = 0; i < 200 && !worker_done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(worker_done);
}

TEST(RobustWatchdogTest, ExceptionsClassifyThroughTheWatchdog) {
  const Attempt unsupported = run_with_deadline(
      []() -> Values { throw ConfigError("k must be >= 1"); }, 10.0);
  EXPECT_EQ(unsupported.failure.kind, FailureKind::kUnsupported);
  EXPECT_EQ(unsupported.failure.message, "k must be >= 1");

  const Attempt solver = run_with_deadline(
      []() -> Values { throw SolverError("diverged"); }, 10.0);
  EXPECT_EQ(solver.failure.kind, FailureKind::kError);
}

}  // namespace
}  // namespace btmf::robust
