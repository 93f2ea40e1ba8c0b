#include "btmf/robust/failure.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "btmf/util/error.h"

namespace btmf::robust {
namespace {

TEST(RobustFailureTest, KindStringsRoundTrip) {
  for (const FailureKind kind :
       {FailureKind::kNone, FailureKind::kError, FailureKind::kTimeout,
        FailureKind::kCrash, FailureKind::kUnsupported,
        FailureKind::kCacheCorrupt}) {
    EXPECT_EQ(failure_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)failure_kind_from_string("gremlins"), ConfigError);
}

TEST(RobustFailureTest, OnlyPermanentKindsAreNotRetryable) {
  EXPECT_FALSE(retryable(FailureKind::kNone));
  EXPECT_FALSE(retryable(FailureKind::kUnsupported));
  EXPECT_TRUE(retryable(FailureKind::kError));
  EXPECT_TRUE(retryable(FailureKind::kTimeout));
  EXPECT_TRUE(retryable(FailureKind::kCrash));
  EXPECT_TRUE(retryable(FailureKind::kCacheCorrupt));
}

Failure classify(const std::function<void()>& thrower) {
  try {
    thrower();
  } catch (...) {
    return classify_active_exception();
  }
  ADD_FAILURE() << "thrower did not throw";
  return {};
}

TEST(RobustFailureTest, ClassifiesActiveExceptions) {
  EXPECT_EQ(classify([] { throw ConfigError("bad knob"); }).kind,
            FailureKind::kUnsupported);
  EXPECT_EQ(classify([] { throw SolverError("diverged"); }).kind,
            FailureKind::kError);
  EXPECT_EQ(classify([] { throw std::runtime_error("plain"); }).kind,
            FailureKind::kError);
  const Failure failure = classify([] { throw SolverError("diverged"); });
  EXPECT_EQ(failure.message, "diverged");
  EXPECT_FALSE(failure.ok());
}

TEST(RobustFailureTest, EscapeLineRoundTripsHostileMessages) {
  const std::string hostile =
      "first line\nsecond \\ line\r\nwith \\n literal backslash-n";
  const std::string escaped = escape_line(hostile);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  EXPECT_EQ(unescape_line(escaped), hostile);
  EXPECT_EQ(unescape_line(escape_line("")), "");
  EXPECT_EQ(unescape_line(escape_line("plain")), "plain");
}

}  // namespace
}  // namespace btmf::robust
