#include "btmf/robust/isolate.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <unistd.h>
#endif

#include "btmf/robust/failure.h"
#include "btmf/util/error.h"

namespace btmf::robust {
namespace {

#if defined(__unix__) || defined(__APPLE__)

TEST(RobustIsolateTest, SupportedOnPosixHosts) {
  EXPECT_TRUE(isolation_supported());
}

TEST(RobustIsolateTest, ValuesRoundTripBitExactThroughThePipe) {
  const double awkward = 1.0 / 3.0;  // non-terminating binary fraction
  const Attempt outcome = run_isolated(
      [awkward] {
        return Values{{"ratio", awkward}, {"neg", -0.0}, {"big", 1e308}};
      },
      /*timeout_s=*/30.0);
  ASSERT_TRUE(outcome.failure.ok());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(outcome.values.at("ratio")),
            std::bit_cast<std::uint64_t>(awkward));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(outcome.values.at("neg")),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(outcome.values.at("big")),
            std::bit_cast<std::uint64_t>(1e308));
}

TEST(RobustIsolateTest, ChildFailureKindsPassThrough) {
  const Attempt unsupported = run_isolated(
      []() -> Values { throw ConfigError("needs p > 0"); }, 30.0);
  EXPECT_EQ(unsupported.failure.kind, FailureKind::kUnsupported);
  EXPECT_EQ(unsupported.failure.message, "needs p > 0");

  const Attempt error = run_isolated(
      []() -> Values { throw SolverError("multi\nline\ndiagnostic"); },
      30.0);
  EXPECT_EQ(error.failure.kind, FailureKind::kError);
  EXPECT_EQ(error.failure.message, "multi\nline\ndiagnostic");
}

TEST(RobustIsolateTest, SignalDeathIsContainedAsCrash) {
  const Attempt outcome = run_isolated(
      []() -> Values {
        ::raise(SIGKILL);
        return {};
      },
      30.0);
  EXPECT_EQ(outcome.failure.kind, FailureKind::kCrash);
  EXPECT_TRUE(outcome.values.empty());
}

TEST(RobustIsolateTest, ExitWithoutAReportIsACrash) {
  // A child that dies after partial output (e.g. the allocator aborting
  // mid-write) must not be mistaken for success.
  const Attempt outcome = run_isolated(
      []() -> Values {
        ::_exit(0);  // vanish without completing the report
      },
      30.0);
  EXPECT_EQ(outcome.failure.kind, FailureKind::kCrash);
}

TEST(RobustIsolateTest, DeadlineSigkillsTheChild) {
  const auto start = std::chrono::steady_clock::now();
  const Attempt outcome = run_isolated(
      []() -> Values {
        // Hard hang: only the process boundary can stop this.
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
      },
      /*timeout_s=*/0.2);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(outcome.failure.kind, FailureKind::kTimeout);
  EXPECT_LT(elapsed, 30.0);  // was actually preempted, not waited out
}

#else

TEST(RobustIsolateTest, UnsupportedPlatformSaysSo) {
  EXPECT_FALSE(isolation_supported());
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace btmf::robust
