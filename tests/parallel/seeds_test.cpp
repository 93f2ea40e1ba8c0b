#include "btmf/parallel/seeds.h"

#include <gtest/gtest.h>

#include <set>

namespace btmf::parallel {
namespace {

TEST(SeedsTest, Deterministic) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_EQ(derive_seed(7, 123), derive_seed(7, 123));
}

TEST(SeedsTest, DistinctStreamsGetDistinctSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    seen.insert(derive_seed(42, s));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SeedsTest, DistinctMastersGetDistinctSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t m = 0; m < 1000; ++m) {
    seen.insert(derive_seed(m, 0));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SeedsTest, SplitMixAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  const std::uint64_t a = splitmix64(0x123456789abcdef0ULL);
  const std::uint64_t b = splitmix64(0x123456789abcdef1ULL);
  const int flipped = __builtin_popcountll(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(RobustRetryTest, SplitmixIsAStableMixer) {
  // Pin the standard SplitMix64 reference value: every derived seed, and so
  // every stochastic result, goes through this mixer. The suite is named for
  // the retry jitter that once hashed through its own copy of it.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(SeedsTest, ConstexprUsable) {
  constexpr std::uint64_t s = derive_seed(1, 2);
  static_assert(s != 0);
  EXPECT_NE(s, 0u);
}

}  // namespace
}  // namespace btmf::parallel
