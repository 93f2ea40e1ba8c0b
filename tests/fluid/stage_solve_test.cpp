// The fluid families' structured stage solves against a dense reference:
// (c I - J) z = r solved by math::LuDecomposition, with J from central
// differences of the family's own right-hand side.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "btmf/fluid/cmfsd.h"
#include "btmf/fluid/correlation.h"
#include "btmf/fluid/mtcd.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/math/matrix.h"
#include "btmf/math/rosenbrock.h"
#include "btmf/util/error.h"

namespace btmf::fluid {
namespace {

/// c I - J with J by Richardson-extrapolated central differences (error
/// O(h^4), so rounding, not truncation, sets the last digits).
math::Matrix shifted_jacobian(const math::OdeRhs& rhs,
                              std::span<const double> y, double c) {
  const std::size_t n = y.size();
  math::Matrix m(n, n);
  std::vector<double> probe(y.begin(), y.end()), hi(n), lo(n);
  const auto central = [&](std::size_t j, double h) {
    probe[j] = y[j] + h;
    rhs(0.0, probe, hi);
    probe[j] = y[j] - h;
    rhs(0.0, probe, lo);
    probe[j] = y[j];
  };
  std::vector<double> d1(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double h = 1e-3 * std::max(1.0, std::abs(y[j]));
    central(j, h);
    for (std::size_t i = 0; i < n; ++i) d1[i] = (hi[i] - lo[i]) / (2.0 * h);
    central(j, h / 2.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double d2 = (hi[i] - lo[i]) / h;
      m(i, j) = -(4.0 * d2 - d1[i]) / 3.0;
    }
    m(j, j) += c;
  }
  return m;
}

/// max |z - z_dense| / max |z_dense| for a random right-hand side.
double solve_error(const math::OdeSystem& ode, std::span<const double> y,
                   double c, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> r(y.size());
  for (double& v : r) v = unit(rng);
  const std::vector<double> want =
      math::LuDecomposition(shifted_jacobian(ode.rhs, y, c)).solve(r);
  const std::unique_ptr<math::StageSolver> stages = ode.stages();
  stages->factor(0.0, y, c);
  stages->solve(r);
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(std::isfinite(r[i]));
    err = std::max(err, std::abs(r[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return err / scale;
}

struct Family {
  std::string name;
  math::OdeSystem ode;
  std::size_t size;
  /// f is differentiable at the empty state (see
  /// MatchesDenseSolveAtTheEmptyState).
  bool smooth_when_empty;
};

std::vector<Family> families(unsigned k) {
  const CorrelationModel corr(k, 0.6, 1.0);
  std::vector<Family> out;
  out.push_back({"single torrent",
                 single_torrent_system(kPaperParams,
                                       corr.per_torrent_total_rate()),
                 2, true});
  out.push_back({"MTCD",
                 mtcd_system(kPaperParams, corr.per_torrent_entry_rates()),
                 2 * k, true});
  for (const double rho : {0.0, 0.4, 1.0}) {
    const CmfsdModel model(kPaperParams, corr.system_entry_rates(), rho);
    out.push_back({"CMFSD rho " + std::to_string(rho), model.system(),
                   model.state_size(), k == 1 || rho == 1.0});
  }
  return out;
}

// The shifts c = 1 / (h gamma) of steps from 0.02 to 2000 time units.
constexpr double kShifts[] = {100.0, 1.0, 1e-2, 1e-3};

TEST(StageSolveTest, MatchesDenseSolveAtRandomPositiveStates) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> population(0.05, 40.0);
  for (const unsigned k : {1U, 3U, 20U}) {
    for (const Family& family : families(k)) {
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<double> y(family.size);
        for (double& v : y) v = population(rng);
        for (const double c : kShifts) {
          EXPECT_LT(solve_error(family.ode, y, c, rng), 1e-10)
              << family.name << " K " << k << " c " << c;
        }
      }
    }
  }
}

TEST(StageSolveTest, MatchesDenseSolveAtTheEmptyState) {
  // x_total = 0 and the MTCD share denominator is 0: the right-hand sides
  // define the pool rate and the share as 0 there, and so do the solves.
  // Where a stage donates bandwidth (CMFSD with rho < 1 and K > 1), one
  // downloader of mass h alone draws mu (1 - rho) h from the pool, so f
  // has no derivative at 0 to compare with; there the solve must still be
  // finite and match the Jacobian without the pool term.
  std::mt19937_64 rng(7);
  for (const unsigned k : {1U, 3U, 20U}) {
    for (const Family& family : families(k)) {
      const std::vector<double> empty(family.size, 0.0);
      for (const double c : kShifts) {
        const double err = solve_error(family.ode, empty, c, rng);
        if (family.smooth_when_empty) {
          EXPECT_LT(err, 1e-10) << family.name << " K " << k << " c " << c;
        }
      }
    }
  }
  // A donating CMFSD at 0: (c I - J0) z = r down the TFT chains alone.
  const CorrelationModel corr(3, 0.6, 1.0);
  const CmfsdModel donating(kPaperParams, corr.system_entry_rates(), 0.4);
  const math::OdeSystem ode = donating.system();
  const std::unique_ptr<math::StageSolver> stages = ode.stages();
  std::vector<double> r(donating.state_size(), 1.0);
  stages->factor(0.0, std::vector<double>(donating.state_size(), 0.0), 1.0);
  stages->solve(r);
  const double tft = kPaperParams.mu * kPaperParams.eta;
  // Class 3's chain: P = 1, rho, rho; seed row gamma.
  const double z1 = 1.0 / (1.0 + tft);
  const double z2 = (1.0 + tft * z1) / (1.0 + 0.4 * tft);
  const double z3 = (1.0 + 0.4 * tft * z2) / (1.0 + 0.4 * tft);
  const double zy = (1.0 + 0.4 * tft * z3) / (1.0 + kPaperParams.gamma);
  EXPECT_NEAR(r[donating.x_index(3, 1)], z1, 1e-15);
  EXPECT_NEAR(r[donating.x_index(3, 2)], z2, 1e-15);
  EXPECT_NEAR(r[donating.x_index(3, 3)], z3, 1e-15);
  EXPECT_NEAR(r[donating.y_index(3)], zy, 1e-15);
}

TEST(StageSolveTest, OverflowingPoolRateFailsTypedNotWithNaN) {
  // A vanishing downloader mass beside real seeds sends S = mu (D + Y) / X
  // (and MTCD's B / W) past double range; the factorisation must refuse
  // with SolverError instead of handing the step inf or NaN.
  const CorrelationModel corr(3, 0.6, 1.0);
  const CmfsdModel cmfsd(kPaperParams, corr.system_entry_rates(), 0.4);
  std::vector<double> y(cmfsd.state_size(), 0.0);
  y[cmfsd.x_index(2, 2)] = 1e-310;
  y[cmfsd.y_index(1)] = 5.0;
  EXPECT_THROW(cmfsd.system().stages()->factor(0.0, y, 1.0), SolverError);

  const math::OdeSystem mtcd =
      mtcd_system(kPaperParams, corr.per_torrent_entry_rates());
  std::vector<double> z(6, 0.0);
  z[1] = 1e-310;
  z[3] = 5.0;
  EXPECT_THROW(mtcd.stages()->factor(0.0, z, 1.0), SolverError);
}

}  // namespace
}  // namespace btmf::fluid
