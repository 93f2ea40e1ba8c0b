#include "btmf/math/rosenbrock.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "btmf/util/error.h"

namespace btmf::math {
namespace {

constexpr std::size_t kS = RosenbrockTableau::kStages;

/// beta_ij = alpha_ij + gamma_ij below the diagonal, gamma on it.
double beta(const RosenbrockTableau& t, std::size_t i, std::size_t j) {
  return i == j ? t.gamma : t.alpha[i][j] + t.gamma_ij[i][j];
}

/// beta'_i = sum_{j < i} beta_ij.
double beta_row(const RosenbrockTableau& t, std::size_t i) {
  double sum = 0.0;
  for (std::size_t j = 0; j < i; ++j) sum += beta(t, i, j);
  return sum;
}

/// alpha_i = sum_{j < i} alpha_ij.
double alpha_row(const RosenbrockTableau& t, std::size_t i) {
  double sum = 0.0;
  for (std::size_t j = 0; j < i; ++j) sum += t.alpha[i][j];
  return sum;
}

/// R(z) = 1 + z b^T (I - z B)^{-1} 1 with B = (beta_ij): the stability
/// function of the method (Hairer & Wanner II, (7.15)).
std::complex<double> stability(const RosenbrockTableau& t,
                               std::complex<double> z) {
  std::complex<double> w[kS];
  std::complex<double> r = 1.0;
  for (std::size_t i = 0; i < kS; ++i) {
    std::complex<double> rhs = 1.0;
    for (std::size_t j = 0; j < i; ++j) rhs += z * beta(t, i, j) * w[j];
    w[i] = rhs / (1.0 - z * t.gamma);
    r += z * t.b[i] * w[i];
  }
  return r;
}

TEST(RosenbrockTest, Rodas3MeetsTheOrderConditions) {
  // Hairer & Wanner II, Table 7.1: order 3 for b, order 2 for b_hat.
  const RosenbrockTableau& t = rodas3_tableau();
  const double g = t.gamma;
  double b1 = 0.0, b2 = 0.0, b3a = 0.0, b3b = 0.0, e1 = 0.0, e2 = 0.0;
  for (std::size_t i = 0; i < kS; ++i) {
    b1 += t.b[i];
    b2 += t.b[i] * beta_row(t, i);
    b3a += t.b[i] * alpha_row(t, i) * alpha_row(t, i);
    for (std::size_t j = 0; j < i; ++j) {
      b3b += t.b[i] * beta(t, i, j) * beta_row(t, j);
    }
    e1 += t.b_hat[i];
    e2 += t.b_hat[i] * beta_row(t, i);
  }
  EXPECT_NEAR(b1, 1.0, 1e-15);
  EXPECT_NEAR(b2, 0.5 - g, 1e-15);
  EXPECT_NEAR(b3a, 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(b3b, 1.0 / 6.0 - g + g * g, 1e-15);
  EXPECT_NEAR(e1, 1.0, 1e-15);
  EXPECT_NEAR(e2, 0.5 - g, 1e-15);
}

TEST(RosenbrockTest, Rodas3IsStifflyAccurateAndLStable) {
  const RosenbrockTableau& t = rodas3_tableau();
  // Stiffly accurate: the last stage's argument plus its gamma row is
  // the solution, b_i = alpha_si + gamma_si.
  for (std::size_t i = 0; i < kS; ++i) {
    EXPECT_NEAR(t.b[i], beta(t, kS - 1, i), 1e-15) << i;
  }
  EXPECT_NEAR(std::abs(stability(t, -1e12)), 0.0, 1e-9);  // R(inf) = 0
  // A-stable: |R| <= 1 on the imaginary axis (and so, R being analytic
  // in the left half-plane, on all of it).
  for (double y = 0.0; y <= 1e4; y = y < 1.0 ? y + 0.01 : y * 1.05) {
    EXPECT_LE(std::abs(stability(t, {0.0, y})), 1.0 + 1e-14) << y;
  }
  // The method is exact to order 3 on y' = z y: R(z) - e^z = O(z^4).
  const double z = 1e-2;
  EXPECT_LT(std::abs(stability(t, z).real() - std::exp(z)), 1e-9);
}

/// Prothero–Robinson: y' = L (y - sin t) + cos t, with y = sin t the
/// solution from y(0) = 0 for any L, stiff for L << -1.
class ProtheroRobinson final : public StageSolver {
 public:
  explicit ProtheroRobinson(double l) : l_(l) {}
  void factor(double, std::span<const double>, double c) override {
    check_pivot(c - l_, c, "Prothero-Robinson");
    inv_ = 1.0 / (c - l_);
  }
  void solve(std::span<double> r) const override { r[0] *= inv_; }

  static OdeSystem system(double l) {
    OdeSystem ode;
    ode.rhs = [l](double t, std::span<const double> y, std::span<double> d) {
      d[0] = l * (y[0] - std::sin(t)) + std::cos(t);
    };
    ode.stages = [l] { return std::make_unique<ProtheroRobinson>(l); };
    ode.autonomous = false;
    return ode;
  }

 private:
  double l_;
  double inv_ = 0.0;
};

/// What a run of RosenbrockStepper leaves behind.
struct StepperRun {
  std::vector<double> y;      ///< state at t
  double t = 0.0;             ///< time reached
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  double next_dt = 0.0;       ///< the step the controller proposes next
};

/// Steps the system from (t0, y0) towards t1 with `stages`: the first
/// step `first_dt` (0 = (t1 - t0) / 100), every step capped at max_dt
/// (0 = no cap), until a step lands on t1 or step() returns false.
StepperRun run(const OdeSystem& ode, StageSolver& stages,
               std::vector<double> y0, double t0, double t1,
               const AdaptiveOptions& options = {}, double first_dt = 0.0,
               double stop_below = 0.0) {
  RosenbrockStepper stepper(ode, stages, options);
  const double span = t1 - t0;
  stepper.start(t0, y0, first_dt > 0.0 ? first_dt : span / 100.0,
                options.max_dt > 0.0
                    ? options.max_dt
                    : std::numeric_limits<double>::infinity());
  while (stepper.t() < t1 && stepper.step(t1, span * 1e-14, stop_below)) {
  }
  return {{stepper.y().begin(), stepper.y().end()}, stepper.t(),
          stepper.accepted(), stepper.rejected(), stepper.next_dt()};
}

/// run() with a fresh stage solver of the system.
StepperRun run(const OdeSystem& ode, std::vector<double> y0, double t0,
               double t1, const AdaptiveOptions& options = {},
               double first_dt = 0.0, double stop_below = 0.0) {
  const std::unique_ptr<StageSolver> stages = ode.stages();
  return run(ode, *stages, std::move(y0), t0, t1, options, first_dt,
             stop_below);
}

/// Every step of length h is accepted: the error control is switched off
/// by a huge tolerance and the step pinned by first_dt and max_dt.
double fixed_step_error(const OdeSystem& ode, double h) {
  AdaptiveOptions options;
  options.rtol = 1e30;
  options.atol = 1e30;
  options.max_dt = h;
  const StepperRun r = run(ode, {0.0}, 0.0, 1.0, options, h);
  EXPECT_EQ(r.rejected_steps, 0u);
  return std::abs(r.y[0] - std::sin(1.0));
}

TEST(RosenbrockTest, ConvergesAtOrderThreeWithTheTimeDerivative) {
  // Non-stiff and non-autonomous: the df/dt term carries the order.
  const OdeSystem ode = ProtheroRobinson::system(-1.0);
  const double coarse = fixed_step_error(ode, 0.1);
  const double fine = fixed_step_error(ode, 0.05);
  const double order = std::log2(coarse / fine);
  EXPECT_GT(order, 2.7);
  EXPECT_LT(order, 3.5);
}

TEST(RosenbrockTest, StiffDecayTakesLongStepsAndStaysAccurate) {
  // L = -1e6: dopri5 would need h < 3.3e-6. RODAS3 steps at the pace
  // of sin t and lands on the smooth solution.
  AdaptiveOptions options;
  options.rtol = 1e-8;
  options.atol = 1e-10;
  const StepperRun r =
      run(ProtheroRobinson::system(-1e6), {0.0}, 0.0, 10.0, options);
  EXPECT_NEAR(r.y[0], std::sin(10.0), 1e-7);
  EXPECT_DOUBLE_EQ(r.t, 10.0);
  EXPECT_LT(r.accepted_steps + r.rejected_steps, 2000u);
}

TEST(RosenbrockTest, LandingStepCarriesTheUnshortenedProposal) {
  // Split at every unit, [0, 10] takes at most one extra (landing) step
  // per piece: each piece's next_dt carries the proposal from before the
  // landing step was shortened, not a multiple of the short step.
  const OdeSystem ode = ProtheroRobinson::system(-1e6);
  AdaptiveOptions options;
  options.rtol = 1e-6;
  options.atol = 1e-8;
  const StepperRun whole = run(ode, {0.0}, 0.0, 10.0, options);
  const std::unique_ptr<StageSolver> stages = ode.stages();
  std::vector<double> y{0.0};
  std::size_t steps = 0;
  double first_dt = 0.0;
  for (int piece = 0; piece < 10; ++piece) {
    const double t0 = static_cast<double>(piece);
    const StepperRun r = run(ode, *stages, y, t0, t0 + 1.0, options, first_dt);
    y = r.y;
    first_dt = r.next_dt;
    steps += r.accepted_steps + r.rejected_steps;
  }
  EXPECT_LE(steps, whole.accepted_steps + whole.rejected_steps + 10);
  EXPECT_NEAR(y[0], std::sin(10.0), 1e-5);

  // Over [0, 1] from a step of 0.9 the landing step is 0.1. Its own
  // proposal is at most 5 x 0.1; the carried one is the 4.5 proposed
  // after the first step.
  AdaptiveOptions loose;
  loose.rtol = 1.0;
  loose.atol = 1.0;
  const StepperRun landing = run(ode, {0.0}, 0.0, 1.0, loose, 0.9);
  EXPECT_EQ(landing.accepted_steps, 2u);
  EXPECT_GE(landing.next_dt, 0.9);
}

TEST(RosenbrockTest, MaxDtCapsEveryStep) {
  AdaptiveOptions options;
  options.max_dt = 0.125;
  const StepperRun r =
      run(ProtheroRobinson::system(-1e6), {0.0}, 0.0, 2.0, options);
  EXPECT_GE(r.accepted_steps, 16u);
  EXPECT_LE(r.next_dt, 0.125);
}

TEST(RosenbrockTest, StopsAtTheFirstProposalBelowStopBelow) {
  // A first step of 2 fails rtol 1e-8 by far, so the controller cuts the
  // next proposal to 0.2 x 2 = 0.4. With stop_below = 1 that rejected
  // attempt ends step(): it returns false with the stepper where it
  // started. Without stop_below the same step retries until it passes.
  const OdeSystem ode = ProtheroRobinson::system(-1e6);
  const std::unique_ptr<StageSolver> stages = ode.stages();
  AdaptiveOptions options;
  options.rtol = 1e-8;
  options.atol = 1e-10;
  RosenbrockStepper stepper(ode, *stages, options);
  stepper.start(0.0, std::vector<double>{0.0}, 2.0, 2.0);
  EXPECT_FALSE(stepper.step(10.0, 1e-13, 1.0));
  EXPECT_EQ(stepper.t(), 0.0);
  EXPECT_EQ(stepper.y()[0], 0.0);
  EXPECT_EQ(stepper.accepted(), 0u);
  EXPECT_EQ(stepper.rejected(), 1u);
  EXPECT_DOUBLE_EQ(stepper.next_dt(), 0.4);
  EXPECT_TRUE(stepper.step(10.0, 1e-13));
  EXPECT_EQ(stepper.accepted(), 1u);
  EXPECT_GT(stepper.t(), 0.0);
  EXPECT_NEAR(stepper.y()[0], std::sin(stepper.t()), 1e-7);

  // Loose tolerances accept every step of 0.5: no attempt is rejected,
  // so stop_below = 1 never ends a step, and the run reaches t1.
  options.rtol = 1e-2;
  options.atol = 1e-2;
  options.max_dt = 0.5;
  const StepperRun whole = run(ode, {0.0}, 0.0, 10.0, options, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(whole.t, 10.0);
  EXPECT_EQ(whole.rejected_steps, 0u);
}

TEST(RosenbrockTest, ClampKeepsPopulationsNonNegative) {
  // y' = -y - 1 crosses zero at t = ln 2; with the clamp the state never
  // reads negative.
  OdeSystem ode;
  ode.rhs = [](double, std::span<const double> y, std::span<double> d) {
    d[0] = -y[0] - 1.0;
  };
  ode.stages = [] { return std::make_unique<ProtheroRobinson>(-1.0); };
  AdaptiveOptions options;
  options.clamp_nonnegative = true;
  const StepperRun r = run(ode, {1.0}, 0.0, 3.0, options);
  EXPECT_EQ(r.y[0], 0.0);
}

TEST(RosenbrockTest, StepUnderflowThrowsSolverError) {
  // f turns NaN at t = 0.5: every step across it is rejected until the
  // step underflows.
  OdeSystem ode = ProtheroRobinson::system(-1.0);
  ode.rhs = [](double t, std::span<const double>, std::span<double> d) {
    d[0] = t < 0.5 ? 1.0 : std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_THROW((void)run(ode, {0.0}, 0.0, 1.0), SolverError);
}

TEST(RosenbrockTest, ExhaustedStepBudgetThrowsSolverError) {
  AdaptiveOptions options;
  options.max_steps = 3;
  options.max_dt = 0.01;
  EXPECT_THROW(
      (void)run(ProtheroRobinson::system(-1.0), {0.0}, 0.0, 1.0, options),
      SolverError);
}

TEST(RosenbrockTest, SingularStageSystemThrowsSolverError) {
  EXPECT_THROW(check_pivot(0.0, 1.0, "test"), SolverError);
  EXPECT_THROW(check_pivot(1e-17, 1.0, "test"), SolverError);
  EXPECT_THROW(check_pivot(std::numeric_limits<double>::quiet_NaN(), 1.0,
                           "test"),
               SolverError);
  EXPECT_THROW(check_pivot(std::numeric_limits<double>::infinity(), 1.0,
                           "test"),
               SolverError);
  EXPECT_NO_THROW(check_pivot(1e-3, 1.0, "test"));
  // y' = y with a step of 2: c = 1 / (h gamma) = 1 is J's eigenvalue.
  OdeSystem ode = ProtheroRobinson::system(1.0);
  EXPECT_THROW((void)run(ode, {0.0}, 0.0, 4.0, {}, 2.0), SolverError);
}

}  // namespace
}  // namespace btmf::math
