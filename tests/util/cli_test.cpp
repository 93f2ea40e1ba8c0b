#include "btmf/util/cli.h"

#include <gtest/gtest.h>

#include <array>

#include "btmf/util/error.h"

namespace btmf::util {
namespace {

ArgParser make_parser() {
  ArgParser parser("prog", "test program");
  parser.add_option("p", "0.5", "correlation");
  parser.add_option("k", "10", "files");
  parser.add_flag("verbose", "chatty output");
  return parser;
}

TEST(CliTest, DefaultsApplyWhenAbsent) {
  ArgParser parser = make_parser();
  const std::array<const char*, 1> argv{"prog"};
  ASSERT_TRUE(parser.parse(1, argv.data()));
  EXPECT_DOUBLE_EQ(parser.get_double("p"), 0.5);
  EXPECT_EQ(parser.get_int("k"), 10);
  EXPECT_FALSE(parser.get_flag("verbose"));
}

TEST(CliTest, SpaceSeparatedValues) {
  ArgParser parser = make_parser();
  const std::array<const char*, 3> argv{"prog", "--p", "0.9"};
  ASSERT_TRUE(parser.parse(3, argv.data()));
  EXPECT_DOUBLE_EQ(parser.get_double("p"), 0.9);
}

TEST(CliTest, EqualsSeparatedValues) {
  ArgParser parser = make_parser();
  const std::array<const char*, 2> argv{"prog", "--k=25"};
  ASSERT_TRUE(parser.parse(2, argv.data()));
  EXPECT_EQ(parser.get_int("k"), 25);
}

TEST(CliTest, FlagsBecomeTrue) {
  ArgParser parser = make_parser();
  const std::array<const char*, 2> argv{"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(2, argv.data()));
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(CliTest, UnknownOptionThrows) {
  ArgParser parser = make_parser();
  const std::array<const char*, 2> argv{"prog", "--bogus"};
  EXPECT_THROW((void)parser.parse(2, argv.data()), ConfigError);
}

TEST(CliTest, MissingValueThrows) {
  ArgParser parser = make_parser();
  const std::array<const char*, 2> argv{"prog", "--p"};
  EXPECT_THROW((void)parser.parse(2, argv.data()), ConfigError);
}

TEST(CliTest, RepeatedOptionThrows) {
  ArgParser parser = make_parser();
  const std::array<const char*, 5> argv{"prog", "--p", "1", "--p", "2"};
  EXPECT_THROW((void)parser.parse(5, argv.data()), ConfigError);
}

TEST(CliTest, FlagWithValueThrows) {
  ArgParser parser = make_parser();
  const std::array<const char*, 2> argv{"prog", "--verbose=1"};
  EXPECT_THROW((void)parser.parse(2, argv.data()), ConfigError);
}

TEST(CliTest, PositionalArgumentThrows) {
  ArgParser parser = make_parser();
  const std::array<const char*, 2> argv{"prog", "stray"};
  EXPECT_THROW((void)parser.parse(2, argv.data()), ConfigError);
}

TEST(CliTest, HelpReturnsFalseAndListsOptions) {
  ArgParser parser = make_parser();
  const std::array<const char*, 2> argv{"prog", "--help"};
  ::testing::internal::CaptureStdout();
  const bool proceed = parser.parse(2, argv.data());
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(proceed);
  EXPECT_NE(out.find("--p"), std::string::npos);
  EXPECT_NE(out.find("--verbose"), std::string::npos);
}

TEST(CliTest, UndeclaredGetThrows) {
  ArgParser parser = make_parser();
  const std::array<const char*, 1> argv{"prog"};
  ASSERT_TRUE(parser.parse(1, argv.data()));
  EXPECT_THROW((void)parser.get("nope"), ConfigError);
  EXPECT_THROW((void)parser.get_flag("p"), ConfigError);  // p is not a flag
}

TEST(CliTest, NonNumericValueThrowsOnTypedGet) {
  ArgParser parser = make_parser();
  const std::array<const char*, 3> argv{"prog", "--p", "high"};
  ASSERT_TRUE(parser.parse(3, argv.data()));
  EXPECT_THROW((void)parser.get_double("p"), ConfigError);
}

TEST(CliTest, CountRejectsZeroAndNegativeValues) {
  for (const char* value : {"0", "-1"}) {
    ArgParser parser = make_parser();
    const std::array<const char*, 3> argv{"prog", "--k", value};
    ASSERT_TRUE(parser.parse(3, argv.data()));
    EXPECT_THROW((void)parser.get_count("k"), ConfigError) << value;
  }
}

TEST(CliTest, CountRejectsValuesThatWouldWrapAsUnsigned) {
  ArgParser parser = make_parser();
  const std::array<const char*, 3> argv{"prog", "--k", "4294967296"};
  ASSERT_TRUE(parser.parse(3, argv.data()));
  EXPECT_THROW((void)parser.get_count("k"), ConfigError);
}

TEST(CliTest, CountAcceptsTheLargestUnsigned) {
  ArgParser parser = make_parser();
  const std::array<const char*, 3> argv{"prog", "--k", "4294967295"};
  ASSERT_TRUE(parser.parse(3, argv.data()));
  EXPECT_EQ(parser.get_count("k"), 4294967295U);
}

TEST(CliTest, CountAcceptsZeroAtLowerBoundZero) {
  ArgParser parser = make_parser();
  const std::array<const char*, 3> argv{"prog", "--k", "0"};
  ASSERT_TRUE(parser.parse(3, argv.data()));
  EXPECT_EQ(parser.get_count("k", 0), 0U);
  EXPECT_THROW((void)parser.get_count("k"), ConfigError);
}

TEST(CliTest, CountAtLowerBoundZeroRejectsWrappingAndNegativeValues) {
  // --retries 4294967297 used to run 1 retry, --kernel-threads 4294967296
  // to read as 0 (no cap).
  for (const char* value : {"4294967296", "4294967297", "-1"}) {
    ArgParser parser = make_parser();
    const std::array<const char*, 3> argv{"prog", "--k", value};
    ASSERT_TRUE(parser.parse(3, argv.data()));
    EXPECT_THROW((void)parser.get_count("k", 0), ConfigError) << value;
  }
}

}  // namespace
}  // namespace btmf::util
