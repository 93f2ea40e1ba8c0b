// The adaptive Dormand–Prince 5(4) integrator with PI-free standard step
// control: the solver behind the equilibrium finder, and the head of
// every fluid transient.
//
// The BitTorrent fluid models relax at rates ~ mu, gamma (both << 1 per
// time unit), so an explicit method with error control fits them over
// short horizons. Over long ones (horizon * gamma in the thousands) the
// slow tail is stiff: there dopri5's stability bound, not its accuracy,
// sets the step. Each accepted step therefore runs Hairer's stiffness
// test, and fluid::sample_trajectory hands a tail that keeps failing it
// to the linearly implicit integrator in math/rosenbrock.h.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "btmf/obs/trace.h"

namespace btmf::math {

/// Right-hand side f(t, y) -> dy/dt, written into `dydt` (same length as y).
using OdeRhs =
    std::function<void(double t, std::span<const double> y,
                       std::span<double> dydt)>;

/// Observer invoked after each accepted step with (t, y); may be empty.
using OdeObserver =
    std::function<void(double t, std::span<const double> y)>;

struct AdaptiveOptions {
  double rtol = 1e-8;          ///< relative tolerance
  double atol = 1e-10;         ///< absolute tolerance
  /// First step to try; 0 = (t1 - t0) / 100. Pass the previous call's
  /// AdaptiveResult::next_dt to continue a trajectory across intervals.
  double initial_dt = 0.0;
  double max_dt = 0.0;         ///< 0 = no cap
  std::size_t max_steps = 1'000'000;
  /// Clip tiny negative populations after each accepted step. The
  /// first-same-as-last stage is reused unless the clip changed the state.
  bool clamp_nonnegative = false;

  /// Optional Chrome-trace writer (non-owning, null = inert): the whole
  /// integration becomes one "ode.integrate" span stamped with the
  /// accepted/rejected step counts.
  obs::TraceWriter* trace = nullptr;
};

struct AdaptiveResult {
  std::vector<double> y;       ///< state at the final time
  double t = 0.0;              ///< final time reached (exactly t1)
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  /// The step the controller proposed after the final accepted step (0 if
  /// no step was taken): the initial_dt for a call continuing from t1.
  double next_dt = 0.0;
  /// dopri5 only: accepted steps whose stiffness estimate h * rho(J)
  /// exceeded 3.25, where the step sits on the method's stability bound
  /// (Hairer & Wanner II, Sec. IV.2), and the last such step's size.
  std::size_t stiff_steps = 0;
  double stiff_dt = 0.0;
};

/// Dormand–Prince RK5(4) with embedded error estimate and standard
/// step-size control. The final step lands exactly on t1; a remainder
/// below the underflow floor (1e-14 of the span) is absorbed into it.
/// Every accepted step also estimates h * rho(J) from its two stages at
/// t + h, as Hairer's DOPRI5 does, and counts it in stiff_steps when it
/// exceeds 3.25; the estimate reads values the step computes anyway and
/// moves no result. Throws btmf::SolverError if the step size underflows
/// or the step budget is exhausted.
AdaptiveResult integrate_dopri5(const OdeRhs& rhs, std::vector<double> y0,
                                double t0, double t1,
                                const AdaptiveOptions& options = {},
                                const OdeObserver& observer = {});

}  // namespace btmf::math
