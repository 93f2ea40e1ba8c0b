// Transient (time-domain) analysis of the fluid models.
//
// The paper evaluates only steady states; the fluid models themselves are
// dynamic, and the regime they are most often quoted for — flash crowds —
// is a transient question: a burst of x0 peers arrives at t = 0 and the
// torrent must drain it. This module samples trajectories of any scheme's
// ODE on a uniform grid and measures settling metrics (peak population,
// time to reach the steady state within a tolerance, crowd drain time).
//
// How a trajectory is integrated. The span is split at every sample time
// and every breakpoint, and each piece is one integrator call that lands
// on its end exactly and hands its step proposal to the next. A piece
// starts with dopri5, whose step follows its accuracy while the
// trajectory moves. Once the trajectory relaxes, the step is pinned at
// dopri5's stability bound instead (about 3.3 / gamma for the fluid
// models), and its stiffness test fires. Once it has fired on 3
// accepted steps, with no piece in between whose steps all passed it,
// the next piece goes to the linearly implicit RODAS3 integrator
// (math/rosenbrock.h), which solves the system's stage systems in O(n).
// The trajectory stays with RODAS3 while its proposed step is at least
// twice dopri5's last stable one, below which a RODAS3 step does not pay
// for itself; where a proposal falls below that, even inside a piece (a
// flash pulse starting, say), dopri5 takes over from the last accepted
// step. The rule reads only what the two integrators report, so every
// caller, option and spec takes the same path. A max_dt below the stability
// bound keeps every dopri5 step stable, and so keeps dopri5 throughout.
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
  /// ArrivalProcess::breakpoints). No step crosses one, so a pulse
  /// narrower than the step cannot be stepped over, and each piece is
  /// integrated with the right-hand side's limit from inside it.
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

/// Integrates y' = f(t, y) from `y0` and samples on a uniform grid.
/// Sample times are hit exactly (integration is split at each grid point
/// and breakpoint, carrying the step controller's state across the
/// splits); the file comment says which integrator takes each piece.
/// options.ode applies to both integrators, with clamp_nonnegative on.
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
