#include "btmf/math/equilibrium.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "btmf/math/vec.h"
#include "btmf/util/check.h"
#include "btmf/util/error.h"

namespace btmf::math {

namespace {

// Accepted steps with no new low of the residual after which the
// transient hands its point to the Newton polish. On CoupledLinearSystem's
// field (equilibrium_test.cpp) at a residual_tol below the noise floor,
// the handoff comes 137 steps in, at t = 217.
constexpr std::size_t kPlateauSteps = 50;

// dopri5's first step, which the controller adapts within a few
// attempts, and 1e-14 of it as the floor below which a step underflows.
constexpr double kFirstStep = 5.0;
constexpr double kMinStep = kFirstStep * 1e-14;

constexpr int kMaxRungs = 3;

double scaled_residual(std::span<const double> f, std::span<const double> y) {
  return norm_inf(f) / (1.0 + norm_inf(y));
}

}  // namespace

EquilibriumResult find_equilibrium(const OdeRhs& rhs, std::vector<double> y0,
                                   const EquilibriumOptions& options) {
  BTMF_CHECK_MSG(!y0.empty(), "find_equilibrium: empty state");
  BTMF_CHECK_MSG(options.residual_tol > 0.0,
                 "find_equilibrium: residual_tol must be positive");
  const double tol = options.residual_tol;
  obs::TraceWriter* const trace = options.ode.trace;
  AdaptiveOptions ode = options.ode;
  ode.clamp_nonnegative = true;
  const double max_dt = ode.max_dt > 0.0
                            ? ode.max_dt
                            : std::numeric_limits<double>::infinity();
  Dopri5Stepper stepper(rhs, ode);
  stepper.start(0.0, y0, kFirstStep, max_dt);

  EquilibriumResult result;
  result.y = std::move(y0);
  std::vector<double> f(result.y.size());
  rhs(0.0, result.y, f);
  result.residual_inf = scaled_residual(f, result.y);

  // The ladder (see the header). Each rung records its diagnostics, and
  // only once the whole ladder is exhausted does the failure surface as a
  // SolverError carrying them. Residuals are compared as !(r <= tol), so
  // a NaN never passes.
  std::ostringstream diag;
  bool exhausted = false;  // the stepper threw: no step is left to take
  for (int rung = 0; rung < kMaxRungs; ++rung) {
    std::optional<obs::TraceWriter::Span> rung_span;
    if (trace != nullptr) {
      rung_span.emplace(trace->span("equilibrium.rung"));
      rung_span->set_args("{\"rung\": " + std::to_string(rung) + "}");
    }
    diag << (rung == 0 ? "" : "; ") << "rung " << rung << ": ";
    if (!exhausted && !(result.residual_inf <= tol)) {
      IntegrateSpan run(trace);
      run.begin(stepper);
      double lowest = result.residual_inf;
      std::size_t since_lowest = 0;
      try {
        while (!(result.residual_inf <= tol) &&
               (!options.polish_with_newton ||
                since_lowest < kPlateauSteps)) {
          stepper.step(std::numeric_limits<double>::infinity(), kMinStep);
          // f at the new state is the step's last stage, unless a clamp
          // moved the state.
          std::span<const double> fy = stepper.fsal();
          if (fy.empty()) {
            rhs(stepper.t(), stepper.y(), f);
            fy = f;
          }
          result.residual_inf = scaled_residual(fy, stepper.y());
          since_lowest = result.residual_inf < lowest ? 0 : since_lowest + 1;
          lowest = std::min(lowest, result.residual_inf);
        }
      } catch (const SolverError& error) {
        // The budget ran out or the step underflowed; the stepper stays
        // at its last accepted step.
        exhausted = true;
        diag << error.what() << ", ";
      }
      run.end("dopri5", stepper);
      std::copy(stepper.y().begin(), stepper.y().end(), result.y.begin());
      result.integrated_time = stepper.t();
    }
    diag << "transient to t=" << result.integrated_time << " ("
         << stepper.accepted() << " steps) residual " << result.residual_inf;

    if (options.polish_with_newton) {
      const VectorField field = [&rhs](std::span<const double> x,
                                       std::span<double> out) {
        rhs(0.0, x, out);
      };
      // Six decades below residual_tol on the same scaled measure: near
      // f's rounding floor, so the point does not depend on how far below
      // residual_tol the transient stopped. Deeper rungs may halve the
      // step far below the default floor (the line search's bisection).
      NewtonOptions newton;
      newton.tol = tol * 1e-6 * (1.0 + norm_inf(result.y));
      newton.min_damping = rung == 0 ? 1.0 / 1024.0 : 1.0 / (1024.0 * 1024.0);
      newton.project = [](std::span<double> x) { clamp_nonnegative(x); };
      std::optional<obs::TraceWriter::Span> newton_span;
      if (trace != nullptr) {
        newton_span.emplace(trace->span("equilibrium.newton"));
      }
      NewtonResult polished = newton_solve(field, result.y, newton);
      if (newton_span.has_value()) {
        newton_span->set_args(
            "{\"iterations\": " + std::to_string(polished.iterations) +
            ", \"converged\": " + (polished.converged ? "true" : "false") +
            "}");
        newton_span.reset();
      }
      diag << ", newton " << polished.iterations << " iters "
           << (polished.converged ? "converged" : "stalled") << " at "
           << polished.residual_inf;
      // Accept the polish only if it genuinely improved the residual; the
      // transient then goes on from the polished point.
      const double polished_scaled =
          polished.residual_inf / (1.0 + norm_inf(polished.x));
      if (polished_scaled < result.residual_inf) {
        result.y = std::move(polished.x);
        result.residual_inf = polished_scaled;
        result.newton_converged = polished.converged;
        stepper.start(stepper.t(), result.y, stepper.next_dt(), max_dt);
      }
    }
    if (result.residual_inf <= tol ||
        (exhausted && !options.polish_with_newton)) {
      break;
    }
  }

  if (!(result.residual_inf <= tol)) {
    throw SolverError(
        "find_equilibrium: residual " + std::to_string(result.residual_inf) +
        " did not reach tolerance " + std::to_string(tol) + " after t = " +
        std::to_string(result.integrated_time) +
        " — the parameter set is likely outside the model's stability "
        "region (arrival rate exceeding service capacity). Ladder "
        "diagnostics: " +
        diag.str());
  }
  return result;
}

}  // namespace btmf::math
