// The Qiu–Srikant single-torrent fluid model (Sec. 2, eqs. on p.2),
// restricted as in the paper to the upload-constrained regime:
//     dx/dt = lambda - mu (eta x + y)
//     dy/dt = mu (eta x + y) - gamma y
//
// Steady state: y* = lambda / gamma, x* = lambda (gamma - mu) / (gamma mu
// eta), download time T = x*/lambda = (gamma - mu)/(gamma mu eta), valid
// for gamma > mu. This is both the MTSD building block and the K = 1
// degenerate case every multi-file model must reduce to (Sec. 3.3).
#pragma once

#include "btmf/fluid/demand.h"
#include "btmf/fluid/params.h"
#include "btmf/math/ode.h"
#include "btmf/math/rosenbrock.h"

namespace btmf::fluid {

struct SingleTorrentEquilibrium {
  double downloaders = 0.0;   ///< x*
  double seeds = 0.0;         ///< y*
  double download_time = 0.0; ///< T = x*/lambda (Little's law)
  double online_time = 0.0;   ///< T + 1/gamma
};

/// Closed-form steady state; throws btmf::ConfigError when gamma <= mu
/// (the upload-constrained model has no meaningful equilibrium there).
SingleTorrentEquilibrium single_torrent_equilibrium(const FluidParams& params,
                                                    double entry_rate);

/// The 2-state ODE right-hand side, state = {x, y}. Used by tests to show
/// the transient converges to the closed form.
math::OdeRhs single_torrent_rhs(const FluidParams& params, double entry_rate);

/// As above, but with the entry rate modulated in time by an
/// ArrivalProcess: lambda(t) = arrival.rate_at(entry_rate, t). With a
/// homogeneous process this returns exactly the autonomous RHS.
math::OdeRhs single_torrent_rhs(const FluidParams& params, double entry_rate,
                                const ArrivalProcess& arrival);

/// The right-hand side above with the stage solves of a linearly implicit
/// step. J = [[-mu eta, -mu], [mu eta, mu - gamma]] is constant, so each
/// solve of (c I - J) z = r is the 2x2 system in closed form.
math::OdeSystem single_torrent_system(const FluidParams& params,
                                      double entry_rate,
                                      const ArrivalProcess& arrival = {});

/// Download time T = (gamma - mu)/(gamma mu eta); the rate-independent core
/// of the MTSD analysis. Throws btmf::ConfigError when gamma <= mu.
double single_torrent_download_time(const FluidParams& params);

}  // namespace btmf::fluid
