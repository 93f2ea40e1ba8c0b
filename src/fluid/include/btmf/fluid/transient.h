// Transient (time-domain) analysis of the fluid models.
//
// The paper evaluates only steady states; the fluid models themselves are
// dynamic, and the regime they are most often quoted for — flash crowds —
// is a transient question: a burst of x0 peers arrives at t = 0 and the
// torrent must drain it. This module samples trajectories of any scheme's
// ODE on a uniform grid and measures settling metrics (peak population,
// time to reach the steady state within a tolerance, crowd drain time).
#pragma once

#include <functional>
#include <vector>

#include "btmf/math/ode.h"

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

/// Integrates y' = f(y) from `y0` and samples on a uniform grid. Sample
/// times are hit exactly (integration is split at each grid point and
/// breakpoint, carrying the step controller's state across the splits).
TransientSeries sample_trajectory(const math::OdeRhs& rhs,
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
