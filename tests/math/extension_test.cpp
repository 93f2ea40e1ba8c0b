// The steppers' continuous extensions: their order inside a step, and
// the exact step ends they return.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "btmf/math/ode.h"
#include "btmf/math/rosenbrock.h"
#include "btmf/math/vec.h"

namespace btmf::math {
namespace {

using Exact = std::function<std::vector<double>(double)>;

// y' = -y from y(0) = 1, and the harmonic oscillator y'' = -y as the
// 2-system (y, y') from (1, 0).
const OdeRhs kDecay = [](double, std::span<const double> y,
                         std::span<double> d) { d[0] = -y[0]; };
const Exact kDecayExact = [](double t) {
  return std::vector<double>{std::exp(-t)};
};
const OdeRhs kOscillator = [](double, std::span<const double> y,
                              std::span<double> d) {
  d[0] = y[1];
  d[1] = -y[0];
};
const Exact kOscillatorExact = [](double t) {
  return std::vector<double>{std::cos(t), -std::sin(t)};
};

/// (c I - J) z = r for y' = -y: J = -1.
class DecayStages final : public StageSolver {
 public:
  void factor(double, std::span<const double>, double c) override {
    inv_ = 1.0 / (c + 1.0);
  }
  void solve(std::span<double> r) const override { r[0] *= inv_; }

 private:
  double inv_ = 0.0;
};

/// (c I - J) z = r for the oscillator: J = [[0, 1], [-1, 0]].
class OscillatorStages final : public StageSolver {
 public:
  void factor(double, std::span<const double>, double c) override { c_ = c; }
  void solve(std::span<double> r) const override {
    const double det = c_ * c_ + 1.0;
    const double z0 = (c_ * r[0] + r[1]) / det;
    r[1] = (c_ * r[1] - r[0]) / det;
    r[0] = z0;
  }

 private:
  double c_ = 0.0;
};

/// Every attempt passes, so each step is the h start() was given.
AdaptiveOptions fixed_steps() {
  AdaptiveOptions options;
  options.rtol = 1e30;
  options.atol = 1e30;
  return options;
}

/// Takes one step of length h from the exact state at 0 and returns the
/// extension's worst error at three interior points. Also checks that
/// the extension returns the step's two ends exactly.
template <class Stepper>
double one_step_extension_error(Stepper& stepper, double h,
                                const Exact& exact) {
  stepper.start(0.0, exact(0.0), h, h);
  stepper.step(h, 0.0);
  EXPECT_EQ(stepper.t(), h);
  std::vector<double> out(stepper.y().size());
  stepper.dense(0.0, out);
  EXPECT_EQ(out, exact(0.0));
  stepper.dense(h, out);
  EXPECT_EQ(out, std::vector<double>(stepper.y().begin(), stepper.y().end()));
  double worst = 0.0;
  for (const double theta : {0.25, 0.5, 0.75}) {
    stepper.dense(theta * h, out);
    const std::vector<double> want = exact(theta * h);
    for (std::size_t i = 0; i < out.size(); ++i) {
      worst = std::max(worst, std::abs(out[i] - want[i]));
    }
  }
  return worst;
}

/// The error ratio of each halving of the step, from h = 0.4 to 0.1.
template <class Stepper>
std::vector<double> halving_ratios(Stepper& stepper, const Exact& exact) {
  std::vector<double> ratios;
  double previous = one_step_extension_error(stepper, 0.4, exact);
  for (const double h : {0.2, 0.1}) {
    const double error = one_step_extension_error(stepper, h, exact);
    EXPECT_GT(error, 0.0);
    ratios.push_back(previous / error);
    previous = error;
  }
  return ratios;
}

TEST(Dopri5Test, ContinuousExtensionHasOrderFourAndExactEnds) {
  // From the exact state, the order-4 extension errs by O(h^5) inside
  // the step: each halving divides the error by about 32.
  const AdaptiveOptions options = fixed_steps();
  for (const auto& [rhs, exact] : {std::pair{kDecay, kDecayExact},
                                   std::pair{kOscillator, kOscillatorExact}}) {
    Dopri5Stepper stepper(rhs, options);
    for (const double ratio : halving_ratios(stepper, exact)) {
      EXPECT_GE(ratio, 16.0);
    }
  }
}

TEST(RosenbrockTest, ContinuousExtensionHasOrderThreeAndExactEnds) {
  // The cubic Hermite through the step's ends errs by O(h^4) inside the
  // step, as does RODAS3's end state: each halving divides the error by
  // about 16.
  const AdaptiveOptions options = fixed_steps();
  OdeSystem decay;
  decay.rhs = kDecay;
  decay.stages = [] { return std::make_unique<DecayStages>(); };
  OdeSystem oscillator;
  oscillator.rhs = kOscillator;
  oscillator.stages = [] { return std::make_unique<OscillatorStages>(); };
  for (const auto& [system, exact] :
       {std::pair{&decay, kDecayExact},
        std::pair{&oscillator, kOscillatorExact}}) {
    const std::unique_ptr<StageSolver> stages = system->stages();
    RosenbrockStepper stepper(*system, *stages, options);
    for (const double ratio : halving_ratios(stepper, exact)) {
      EXPECT_GE(ratio, 8.0);
    }
  }
}

}  // namespace
}  // namespace btmf::math
