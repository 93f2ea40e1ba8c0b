#include "btmf/math/special.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "btmf/util/error.h"

namespace btmf::math {
namespace {

TEST(BinomialCoefficientTest, SmallValuesExact) {
  EXPECT_DOUBLE_EQ(binomial_coefficient(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(10, 3), 120.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(20, 10), 184756.0);
}

TEST(BinomialCoefficientTest, PascalIdentity) {
  for (unsigned n = 2; n <= 30; ++n) {
    for (unsigned k = 1; k < n; ++k) {
      EXPECT_DOUBLE_EQ(binomial_coefficient(n, k),
                       binomial_coefficient(n - 1, k - 1) +
                           binomial_coefficient(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(BinomialCoefficientTest, KGreaterThanNThrows) {
  EXPECT_THROW((void)binomial_coefficient(3, 4), ConfigError);
}

TEST(BinomialPmfTest, SumsToOne) {
  for (const double p : {0.0, 0.1, 0.35, 0.5, 0.9, 1.0}) {
    const auto pmf = binomial_pmf_vector(10, p);
    const double total = std::accumulate(pmf.begin(), pmf.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12) << "p=" << p;
  }
}

TEST(BinomialPmfTest, DegenerateEndpoints) {
  EXPECT_DOUBLE_EQ(binomial_pmf(7, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(7, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(7, 7, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(7, 2, 1.0), 0.0);
}

TEST(BinomialPmfTest, MatchesDirectFormula) {
  // n = 10, k = 4, p = 0.3: C(10,4) 0.3^4 0.7^6.
  const double expected = 210.0 * std::pow(0.3, 4) * std::pow(0.7, 6);
  EXPECT_NEAR(binomial_pmf(10, 4, 0.3), expected, 1e-15);
}

TEST(BinomialPmfTest, MeanIsNp) {
  const unsigned n = 12;
  const double p = 0.37;
  const auto pmf = binomial_pmf_vector(n, p);
  double mean = 0.0;
  for (unsigned k = 0; k <= n; ++k) mean += k * pmf[k];
  EXPECT_NEAR(mean, n * p, 1e-12);
}

TEST(BinomialPmfTest, InvalidPThrows) {
  EXPECT_THROW((void)binomial_pmf(5, 2, -0.1), ConfigError);
  EXPECT_THROW((void)binomial_pmf(5, 2, 1.1), ConfigError);
}

TEST(LogBinomialTest, ConsistentWithLinearScale) {
  EXPECT_NEAR(std::exp(log_binomial_coefficient(30, 15)),
              binomial_coefficient(30, 15), 1e-3);
}

TEST(LogBinomialTest, BitIdenticalToTheLgammaFormula) {
  for (unsigned n = 0; n <= 64; ++n) {
    for (unsigned k = 0; k <= n; ++k) {
      const double lgamma_form = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                                 std::lgamma(n - k + 1.0);
      EXPECT_EQ(log_binomial_coefficient(n, k), lgamma_form)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(BinomialPmfTest, ConcurrentCallsAgreeWithSerialOnes) {
  // Sweep and serve workers evaluate fluid models concurrently; the
  // pmf must not touch shared state (std::lgamma writes `signgam`).
  constexpr unsigned kN = 40;
  const std::vector<double> serial = binomial_pmf_vector(kN, 0.3);
  std::vector<std::vector<double>> seen(4);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < seen.size(); ++w) {
    workers.emplace_back([&seen, w] {
      for (int round = 0; round < 200; ++round) {
        seen[w] = binomial_pmf_vector(kN, 0.3);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::vector<double>& pmf : seen) EXPECT_EQ(pmf, serial);
}

}  // namespace
}  // namespace btmf::math
