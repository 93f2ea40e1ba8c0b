// Steady-state finder for autonomous ODE systems y' = f(y).
//
// Strategy: step the transient with dopri5, clamping populations at zero,
// until ||f(y)||, scaled by the state magnitude, meets the tolerance or
// stops falling — then polish the point with damped Newton. Transient
// integration is globally convergent for the (stable) fluid-model
// equilibria; Newton tightens the residual to near machine precision and
// its success certifies the point really is a fixed point. Near the
// equilibrium dopri5's step sits on its stability bound, where the
// residual stalls at the noise floor of the ODE tolerances: that plateau
// is Newton's to finish, not more steps'.
#pragma once

#include <vector>

#include "btmf/math/newton.h"
#include "btmf/math/ode.h"

namespace btmf::math {

struct EquilibriumOptions {
  double residual_tol = 1e-9;   ///< target ||f(y)||_inf / (1 + ||y||_inf)
  /// The transient's dopri5: tolerances, a step cap, max_steps (the
  /// whole solve's budget of attempts) and the trace, which receives the
  /// "equilibrium.rung", "equilibrium.newton" and "ode.integrate" spans.
  /// Populations are always clamped at zero, whatever clamp_nonnegative
  /// says.
  AdaptiveOptions ode;
  /// With the polish off, the transient steps on to residual_tol.
  bool polish_with_newton = true;
};

struct EquilibriumResult {
  std::vector<double> y;        ///< the steady state
  double residual_inf = 0.0;    ///< ||f(y)||_inf at the returned point
  double integrated_time = 0.0; ///< total transient time simulated
  /// Whether the accepted Newton polish certified the point. May be false
  /// on a *successful* solve when the transient alone met residual_tol
  /// (or polishing was disabled); the invariant callers can rely on is
  /// "find_equilibrium returned => residual_inf <= residual_tol", enforced
  /// by the SolverError below — never this flag alone.
  bool newton_converged = false;
};

/// Finds y* with f(y*) ~ 0 starting from y0.
///
/// One dopri5 run steps the transient and reads the scaled residual from
/// each accepted step's last stage, f at the new state (evaluating f only
/// after a clamp). It hands the point to the Newton polish as soon as the
/// residual meets residual_tol or, with the polish on, has set no new low
/// over a fixed window of steps. Robustness ladder: if the polished
/// residual misses the tolerance, up to two rungs step on to the next
/// plateau and retry with a Newton allowed to halve its step far below
/// the default floor. ode.max_steps bounds the attempts of the whole run.
/// Throws btmf::SolverError, carrying the per-rung diagnostics, only after
/// the whole ladder is exhausted, which for these models indicates an
/// infeasible parameter set (e.g. arrival rate exceeding service
/// capacity).
EquilibriumResult find_equilibrium(const OdeRhs& rhs, std::vector<double> y0,
                                   const EquilibriumOptions& options = {});

}  // namespace btmf::math
