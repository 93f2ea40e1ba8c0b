// Transient (time-domain) analysis of the fluid models.
//
// The paper evaluates only steady states; the fluid models themselves are
// dynamic, and the regime they are most often quoted for — flash crowds —
// is a transient question: a burst of x0 peers arrives at t = 0 and the
// torrent must drain it. This module samples trajectories of any scheme's
// ODE on a uniform grid and measures settling metrics (peak population,
// time to reach the steady state within a tolerance, crowd drain time).
//
// How a trajectory is integrated. One loop of steps runs over [0, t_end].
// Steps land only on the breakpoints and on t_end, and every sample time
// a step passes is read from that step's continuous extension (clipped
// at 0 like the steps' states; a sample on a step end takes the step's
// state), so the sample count moves no step. The loop starts with
// dopri5, whose step follows its accuracy while the trajectory moves.
// Once the trajectory relaxes, the step is pinned at dopri5's stability
// bound instead (about 3.3 / gamma for the fluid models), and its
// stiffness test fires. Once it has fired on 3 accepted steps, with no
// run of 3 steps that all passed it in between, the trajectory goes to
// the linearly implicit RODAS3 integrator (math/rosenbrock.h), which
// solves the system's stage systems in O(n). RODAS3 starts from twice
// dopri5's last stable step, takes no step longer than 30 times that
// step, and keeps the trajectory while its proposed step is at least
// twice the stable one, below which a RODAS3 step does not pay for
// itself; at the first shorter proposal (a flash pulse starting, say),
// dopri5 takes over from the last accepted step. The rule reads only
// what the two integrators report, so every caller, option and spec
// takes the same path. A max_dt below the stability bound keeps every
// dopri5 step stable, and so keeps dopri5 throughout.
#pragma once

#include <functional>
#include <vector>

#include "btmf/math/ode.h"
#include "btmf/math/rosenbrock.h"

namespace btmf::fluid {

struct TransientOptions {
  double t_end = 2000.0;       ///< trajectory horizon
  std::size_t samples = 200;   ///< uniform sample count (incl. t = 0)
  math::AdaptiveOptions ode{}; ///< integrator tolerances
  /// Times at which the right-hand side jumps, ascending (e.g.
  /// ArrivalProcess::breakpoints). Steps land on each and none crosses
  /// one, so a pulse narrower than the step cannot be stepped over, and
  /// a step landing on one sees the right-hand side's limit from inside.
  std::vector<double> breakpoints;
};

/// A sampled trajectory: `states[s]` is the full state at `times[s]`.
struct TransientSeries {
  std::vector<double> times;
  std::vector<std::vector<double>> states;

  /// Applies `reduce` to every sample, e.g. total downloaders.
  [[nodiscard]] std::vector<double> map(
      const std::function<double(std::span<const double>)>& reduce) const;
};

/// Integrates y' = f(t, y) from `y0` to t_end and samples it on a
/// uniform grid (the last sample at t_end exactly) from the steps'
/// continuous extensions; the file comment says where steps land and
/// which integrator takes each. options.ode applies to both integrators,
/// with clamp_nonnegative on: max_dt caps every step, max_steps bounds
/// each integrator's attempts over the trajectory, and the trace records
/// one "ode.integrate" span per run of one integrator. dopri5's first
/// step is t_end / 100.
TransientSeries sample_trajectory(const math::OdeSystem& system,
                                  std::vector<double> y0,
                                  const TransientOptions& options = {});

/// First grid time at which ||y(t) - target||_inf <= tol * (1 +
/// ||target||_inf), or +inf if never within the horizon.
double settling_time(const TransientSeries& series,
                     std::span<const double> target, double tol = 0.01);

/// Peak of a reduced scalar (e.g. max total downloader population).
double peak_value(const TransientSeries& series,
                  const std::function<double(std::span<const double>)>&
                      reduce);

}  // namespace btmf::fluid
