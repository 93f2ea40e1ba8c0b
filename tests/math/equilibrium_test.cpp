#include "btmf/math/equilibrium.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "btmf/util/error.h"

namespace btmf::math {
namespace {

TEST(EquilibriumTest, LinearRelaxationFindsFixedPoint) {
  // y' = 1 - y has the unique stable equilibrium y* = 1.
  const OdeRhs rhs = [](double, std::span<const double> y,
                        std::span<double> d) { d[0] = 1.0 - y[0]; };
  const EquilibriumResult r = find_equilibrium(rhs, {0.0});
  EXPECT_NEAR(r.y[0], 1.0, 1e-8);
  EXPECT_LE(r.residual_inf, 1e-9);
}

// y1' = 2 - y1, y2' = y1 - 0.5 y2  ->  y* = (2, 4).
const OdeRhs kCoupled = [](double, std::span<const double> y,
                           std::span<double> d) {
  d[0] = 2.0 - y[0];
  d[1] = y[0] - 0.5 * y[1];
};

TEST(EquilibriumTest, CoupledLinearSystem) {
  const EquilibriumResult r = find_equilibrium(kCoupled, {0.0, 0.0});
  EXPECT_NEAR(r.y[0], 2.0, 1e-7);
  EXPECT_NEAR(r.y[1], 4.0, 1e-7);
  EXPECT_TRUE(r.newton_converged);
}

TEST(EquilibriumTest, AStallingTransientEndsThroughTheNewtonPolish) {
  // On kCoupled dopri5 ends up stepping on its stability bound, where
  // the scaled residual sits at a noise floor of a few 1e-9, above
  // residual_tol: a residual read only there waits for a lucky dip below
  // the tolerance. The solve must instead end through the Newton polish,
  // which solves the linear system at once, within 5000 attempts.
  EquilibriumOptions options;
  options.ode.max_steps = 5000;
  EquilibriumResult r;
  ASSERT_NO_THROW(r = find_equilibrium(kCoupled, {0.0, 0.0}, options));
  EXPECT_TRUE(r.newton_converged);
  EXPECT_LE(r.residual_inf, options.residual_tol);
  EXPECT_NEAR(r.y[0], 2.0, 1e-9);
  EXPECT_NEAR(r.y[1], 4.0, 1e-9);
}

TEST(EquilibriumTest, AResidualPlateauGoesToTheNewtonPolish) {
  // A residual_tol below the transient's noise floor: no step can meet
  // it, so the point must go to Newton once the residual stops falling,
  // well inside 1000 attempts.
  EquilibriumOptions options;
  options.residual_tol = 1e-14;
  options.ode.max_steps = 1000;
  EquilibriumResult r;
  ASSERT_NO_THROW(r = find_equilibrium(kCoupled, {0.0, 0.0}, options));
  EXPECT_TRUE(r.newton_converged);
  EXPECT_LE(r.residual_inf, options.residual_tol);
  EXPECT_NEAR(r.y[0], 2.0, 1e-12);
  EXPECT_NEAR(r.y[1], 4.0, 1e-12);
}

TEST(EquilibriumTest, NonlinearLogisticEquilibrium) {
  // Logistic growth y' = y (1 - y/10) from y0 = 1 -> carrying capacity 10.
  const OdeRhs rhs = [](double, std::span<const double> y,
                        std::span<double> d) {
    d[0] = y[0] * (1.0 - y[0] / 10.0);
  };
  const EquilibriumResult r = find_equilibrium(rhs, {1.0});
  EXPECT_NEAR(r.y[0], 10.0, 1e-6);
}

TEST(EquilibriumTest, NewtonPolishTightensResidual) {
  const OdeRhs rhs = [](double, std::span<const double> y,
                        std::span<double> d) { d[0] = 3.0 - 0.1 * y[0]; };
  EquilibriumOptions no_polish;
  no_polish.polish_with_newton = false;
  no_polish.residual_tol = 1e-6;
  EquilibriumOptions polish = no_polish;
  polish.polish_with_newton = true;
  const double r_raw = find_equilibrium(rhs, {0.0}, no_polish).residual_inf;
  const double r_polished = find_equilibrium(rhs, {0.0}, polish).residual_inf;
  EXPECT_LE(r_polished, r_raw);
  EXPECT_LE(r_polished, 1e-9);
}

TEST(EquilibriumTest, DivergentSystemThrows) {
  // y' = 1 never reaches a fixed point.
  const OdeRhs rhs = [](double, std::span<const double>,
                        std::span<double> d) { d[0] = 1.0; };
  EquilibriumOptions options;
  options.ode.max_steps = 200;
  EXPECT_THROW((void)find_equilibrium(rhs, {0.0}, options), SolverError);
}

TEST(EquilibriumTest, UnboundedGrowthFailsTypedWithinTheStepBudget) {
  // y' = 1 + y grows without bound: its one fixed point, -1, lies below
  // the non-negative states, and the scaled residual stays at 1. With
  // the polish off only ode.max_steps ends the transient. The failure is
  // a SolverError with the ladder's diagnostics, after at most the
  // budget's dopri5 attempts and the one evaluation of f at y0: the
  // residual comes from each step's last stage.
  std::size_t calls = 0;
  const OdeRhs rhs = [&calls](double, std::span<const double> y,
                              std::span<double> d) {
    ++calls;
    d[0] = 1.0 + y[0];
  };
  EquilibriumOptions options;
  options.polish_with_newton = false;
  options.ode.max_steps = 500;
  std::string what;
  try {
    (void)find_equilibrium(rhs, {0.0}, options);
  } catch (const SolverError& error) {
    what = error.what();
  }
  EXPECT_NE(what.find("rung 0"), std::string::npos) << what;
  EXPECT_LE(calls, 1 + 6 * (options.ode.max_steps + 1));
}

TEST(EquilibriumTest, AlreadyAtEquilibriumReturnsImmediately) {
  const OdeRhs rhs = [](double, std::span<const double> y,
                        std::span<double> d) { d[0] = 1.0 - y[0]; };
  const EquilibriumResult r = find_equilibrium(rhs, {1.0});
  EXPECT_EQ(r.integrated_time, 0.0);
  EXPECT_NEAR(r.y[0], 1.0, 1e-12);
}

TEST(EquilibriumTest, EmptyStateThrows) {
  const OdeRhs rhs = [](double, std::span<const double>,
                        std::span<double>) {};
  EXPECT_THROW((void)find_equilibrium(rhs, {}), ConfigError);
}

TEST(EquilibriumTest, ClampKeepsPopulationsNonNegative) {
  // The flow briefly dips the transient below zero without clamping;
  // find_equilibrium always clamps.
  const OdeRhs rhs = [](double, std::span<const double> y,
                        std::span<double> d) {
    d[0] = -10.0 * y[0] + 0.1;
    d[1] = y[0] - y[1];
  };
  const EquilibriumResult r = find_equilibrium(rhs, {5.0, 0.0});
  EXPECT_GE(r.y[0], 0.0);
  EXPECT_NEAR(r.y[0], 0.01, 1e-8);
  EXPECT_NEAR(r.y[1], 0.01, 1e-8);
}

}  // namespace
}  // namespace btmf::math
