#include "btmf/math/special.h"

#include <cmath>

#include "btmf/util/check.h"

namespace btmf::math {

namespace {

/// ln Gamma(x) for x >= 1. std::lgamma writes the global `signgam`, a
/// data race when fluid evaluations run on several threads; lgamma_r is
/// the same glibc routine with the sign returned through an argument.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double log_binomial_coefficient(unsigned n, unsigned k) {
  BTMF_CHECK_MSG(k <= n, "binomial coefficient needs k <= n");
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double binomial_coefficient(unsigned n, unsigned k) {
  return std::round(std::exp(log_binomial_coefficient(n, k)));
}

double binomial_pmf(unsigned n, unsigned k, double p) {
  BTMF_CHECK_MSG(k <= n, "binomial_pmf needs k <= n");
  BTMF_CHECK_MSG(p >= 0.0 && p <= 1.0, "binomial_pmf needs p in [0, 1]");
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = log_binomial_coefficient(n, k) +
                         static_cast<double>(k) * std::log(p) +
                         static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

std::vector<double> binomial_pmf_vector(unsigned n, double p) {
  std::vector<double> pmf(n + 1);
  for (unsigned k = 0; k <= n; ++k) pmf[k] = binomial_pmf(n, k, p);
  return pmf;
}

std::vector<double> poisson_binomial_pmf_vector(
    std::span<const double> probs) {
  for (const double q : probs) {
    BTMF_CHECK_MSG(q >= 0.0 && q <= 1.0,
                   "Poisson-binomial probabilities must lie in [0, 1]");
  }
  std::vector<double> pmf(probs.size() + 1, 0.0);
  pmf[0] = 1.0;
  std::size_t count = 0;
  for (const double q : probs) {
    ++count;
    // Convolve with Bernoulli(q), updating in place from the top.
    for (std::size_t k = count; k-- > 0;) {
      pmf[k + 1] += pmf[k] * q;
      pmf[k] *= 1.0 - q;
    }
  }
  return pmf;
}

}  // namespace btmf::math
