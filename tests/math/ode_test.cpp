#include "btmf/math/ode.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "btmf/util/error.h"

namespace btmf::math {
namespace {

/// What a run of Dopri5Stepper from t0 to t1 leaves behind.
struct StepperRun {
  std::vector<double> y;      ///< state at t
  double t = 0.0;             ///< time reached
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  double next_dt = 0.0;       ///< the step the controller proposes next
};

/// Steps from (t0, y0) until a step lands on t1 > t0: the first step
/// `first_dt` (0 = (t1 - t0) / 100), every step capped at
/// options.max_dt (0 = the span), and a remainder below 1e-14 of the
/// span absorbed into the last step.
StepperRun run(const OdeRhs& rhs, const std::vector<double>& y0,
               double t0, double t1, const AdaptiveOptions& options = {},
               double first_dt = 0.0) {
  Dopri5Stepper stepper(rhs, options);
  const double span = t1 - t0;
  stepper.start(t0, y0, first_dt > 0.0 ? first_dt : span / 100.0,
                options.max_dt > 0.0 ? options.max_dt : span);
  while (stepper.t() < t1) stepper.step(t1, span * 1e-14);
  return {{stepper.y().begin(), stepper.y().end()}, stepper.t(),
          stepper.accepted(), stepper.rejected(), stepper.next_dt()};
}

// y' = -y, y(0) = 1 -> y(t) = e^{-t}.
const OdeRhs kDecay = [](double, std::span<const double> y,
                         std::span<double> d) { d[0] = -y[0]; };

// Harmonic oscillator y'' = -y as a 2-system; energy is conserved.
const OdeRhs kOscillator = [](double, std::span<const double> y,
                              std::span<double> d) {
  d[0] = y[1];
  d[1] = -y[0];
};

TEST(Dopri5Test, MatchesExponentialDecay) {
  AdaptiveOptions options;
  options.rtol = 1e-10;
  options.atol = 1e-12;
  const StepperRun r = run(kDecay, {1.0}, 0.0, 5.0, options);
  EXPECT_NEAR(r.y[0], std::exp(-5.0), 1e-9);
  EXPECT_DOUBLE_EQ(r.t, 5.0);
  EXPECT_GT(r.accepted_steps, 0u);
}

TEST(Dopri5Test, OscillatorConservesEnergyToTolerance) {
  AdaptiveOptions options;
  options.rtol = 1e-10;
  options.atol = 1e-12;
  const StepperRun r = run(kOscillator, {1.0, 0.0}, 0.0, 20.0, options);
  EXPECT_NEAR(r.y[0], std::cos(20.0), 1e-7);
  EXPECT_NEAR(r.y[1], -std::sin(20.0), 1e-7);
  const double energy = r.y[0] * r.y[0] + r.y[1] * r.y[1];
  EXPECT_NEAR(energy, 1.0, 1e-8);
}

TEST(Dopri5Test, TighterToleranceGivesSmallerError) {
  AdaptiveOptions loose;
  loose.rtol = 1e-4;
  loose.atol = 1e-6;
  AdaptiveOptions tight;
  tight.rtol = 1e-10;
  tight.atol = 1e-12;
  const double exact = std::exp(-3.0);
  const double e_loose =
      std::abs(run(kDecay, {1.0}, 0.0, 3.0, loose).y[0] - exact);
  const double e_tight =
      std::abs(run(kDecay, {1.0}, 0.0, 3.0, tight).y[0] - exact);
  EXPECT_LT(e_tight, e_loose);
}

TEST(Dopri5Test, TighterToleranceTakesMoreSteps) {
  AdaptiveOptions loose;
  loose.rtol = 1e-4;
  AdaptiveOptions tight;
  tight.rtol = 1e-11;
  tight.atol = 1e-13;
  const StepperRun r_loose = run(kOscillator, {1.0, 0.0}, 0.0, 10.0, loose);
  const StepperRun r_tight = run(kOscillator, {1.0, 0.0}, 0.0, 10.0, tight);
  EXPECT_GT(r_tight.accepted_steps, r_loose.accepted_steps);
}

TEST(Dopri5Test, MaxStepBudgetThrows) {
  AdaptiveOptions options;
  options.max_steps = 3;
  options.rtol = 1e-12;
  options.atol = 1e-14;
  EXPECT_THROW((void)run(kOscillator, {1.0, 0.0}, 0.0, 100.0, options),
               SolverError);
}

TEST(Dopri5Test, ClampNonNegativeKeepsPopulationsAtZero) {
  // y' = -1 would cross zero; clamping pins the state at 0.
  const OdeRhs rhs = [](double, std::span<const double>,
                        std::span<double> d) { d[0] = -1.0; };
  AdaptiveOptions options;
  options.clamp_nonnegative = true;
  const StepperRun r = run(rhs, {0.5}, 0.0, 2.0, options);
  EXPECT_GE(r.y[0], 0.0);
}

TEST(Dopri5Test, NonFiniteRhsRejectedThenThrows) {
  // A right-hand side that explodes: the controller shrinks dt until the
  // underflow guard reports failure instead of looping forever.
  const OdeRhs rhs = [](double t, std::span<const double> y,
                        std::span<double> d) {
    d[0] = (t > 0.5) ? y[0] / (1.0 - t) / (1.0 - t) * 1e300 : y[0];
  };
  EXPECT_THROW((void)run(rhs, {1.0}, 0.0, 2.0), SolverError);
}

TEST(Dopri5Test, InvalidTolerancesThrow) {
  AdaptiveOptions options;
  options.rtol = 0.0;
  EXPECT_THROW((void)run(kDecay, {1.0}, 0.0, 1.0, options), ConfigError);
}

// y' = 1e-5 (1 - y): slow enough that one step spans a whole interval
// of a 199-interval grid over [0, 40000].
const OdeRhs kSlowRelax = [](double, std::span<const double> y,
                             std::span<double> d) {
  d[0] = 1e-5 * (1.0 - y[0]);
};
constexpr double kGridSpan = 40000.0 / 199.0;

TEST(Dopri5Test, FinalStepLandsExactlyOnT1) {
  // Each interval of the grid starts with the previous interval's length
  // as its first step. The two lengths differ in the last bits, so that
  // step stops an ulp or two short of t1: the remainder is absorbed into
  // the step instead of becoming a step below the underflow floor.
  for (int s = 2; s <= 199; ++s) {
    const double t0 = kGridSpan * (s - 1);
    const double t1 = kGridSpan * s;
    const double first_dt = t0 - kGridSpan * (s - 2);
    StepperRun r;
    ASSERT_NO_THROW(r = run(kSlowRelax, {0.5}, t0, t1, {}, first_dt))
        << "interval " << s;
    EXPECT_EQ(r.t, t1);
    if (t1 - (t0 + first_dt) < (t1 - t0) * 1e-14) {
      EXPECT_EQ(r.accepted_steps, 1u) << "interval " << s;
    }
    EXPECT_GT(r.next_dt, 0.0);
  }
}

TEST(Dopri5Test, AcceptedStepWithoutClampingCostsSixRhsCalls) {
  // FSAL: the seventh stage of an accepted step is the next step's
  // first, also with clamp_nonnegative on as long as nothing was clipped.
  std::size_t calls = 0;
  const OdeRhs counted = [&calls](double, std::span<const double> y,
                                  std::span<double> d) {
    ++calls;
    d[0] = -y[0];
  };
  AdaptiveOptions options;
  options.clamp_nonnegative = true;
  const StepperRun r = run(counted, {1.0}, 0.0, 5.0, options);
  EXPECT_EQ(calls, 1 + 6 * (r.accepted_steps + r.rejected_steps));

  // A step whose result is clipped re-evaluates its first stage.
  calls = 0;
  const OdeRhs sink = [&calls](double, std::span<const double>,
                               std::span<double> d) {
    ++calls;
    d[0] = -1.0;
  };
  const StepperRun clipped = run(sink, {0.5}, 0.0, 2.0, options);
  EXPECT_GT(calls, 1 + 6 * (clipped.accepted_steps + clipped.rejected_steps));
  EXPECT_EQ(clipped.y[0], 0.0);
}

TEST(Dopri5Test, ALandingStepKeepsTheProposalItWasShortenedFrom) {
  // Over [0, 1] from a step of 0.9, loose tolerances accept every step
  // and grow it fivefold, up to the span: the first step proposes 1, so
  // the landing step is shortened from 1 to 0.1. Its own proposal would
  // be 0.5; a run continuing from t1 starts from the 1 it was shortened
  // from.
  AdaptiveOptions loose;
  loose.rtol = 1.0;
  loose.atol = 1.0;
  const StepperRun landing = run(kDecay, {1.0}, 0.0, 1.0, loose, 0.9);
  EXPECT_EQ(landing.accepted_steps, 2u);
  EXPECT_EQ(landing.t, 1.0);
  EXPECT_EQ(landing.next_dt, 1.0);
}

}  // namespace
}  // namespace btmf::math
