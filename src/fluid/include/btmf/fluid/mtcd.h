// Multi-Torrent Concurrent Downloading — the paper's fluid model (1) and
// closed form (2), Sec. 3.2.
//
// A user requesting i files runs one peer in each of its i torrents and
// splits bandwidth evenly, so its per-torrent upload is mu/i. Within one
// torrent the class-i downloader population x^i and seed population y^i
// evolve as
//   dx_i/dt = lambda_i - eta (mu/i) x_i - share_i * sum_l (mu/l) y_l
//   dy_i/dt = eta (mu/i) x_i + share_i * sum_l (mu/l) y_l - gamma y_i
// with share_i = (x_i/i) / sum_l (x_l/l) — seeds serve downloaders in
// proportion to their (bandwidth-split) download capability.
//
// Closed-form steady state (paper eq. (2)):
//   y_i = lambda_i / gamma,   x_i = i * lambda_i * A,
//   A = (gamma sum_l lambda_l - mu sum_l lambda_l / l)
//       / (gamma mu eta sum_l lambda_l)
// so T_i = i A + 1/gamma: online time grows linearly in the number of
// files requested, with the same per-file factor A for every class.
#pragma once

#include <span>
#include <vector>

#include "btmf/fluid/demand.h"
#include "btmf/fluid/metrics.h"
#include "btmf/fluid/params.h"
#include "btmf/math/ode.h"
#include "btmf/math/rosenbrock.h"

namespace btmf::fluid {

struct MtcdEquilibrium {
  std::vector<double> downloaders;  ///< x^i in one torrent (index 0 = class 1)
  std::vector<double> seeds;        ///< y^i in one torrent
  double per_file_factor = 0.0;     ///< A — download time per file
  PerClassMetrics metrics;          ///< T_i = iA + 1/gamma, D_i = iA
};

/// Closed-form steady state for one torrent given per-torrent class entry
/// rates {lambda^1, ..., lambda^K} (index 0 = class 1). Throws
/// btmf::ConfigError if all rates are zero or if the equilibrium would
/// have a negative downloader population (infeasible parameters).
MtcdEquilibrium mtcd_equilibrium(const FluidParams& params,
                                 std::span<const double> class_entry_rates);

/// The 2K-state ODE right-hand side for one torrent; state layout is
/// {x^1..x^K, y^1..y^K}. The seed-service share is defined as 0 when no
/// downloaders are present (the 0/0 limit of the share expression).
math::OdeRhs mtcd_rhs(const FluidParams& params,
                      std::vector<double> class_entry_rates);

/// As above, but with the class entry rates modulated in time by an
/// ArrivalProcess: lambda_i(t) = arrival.rate_at(lambda_i, t). With a
/// homogeneous process this returns exactly the autonomous RHS.
math::OdeRhs mtcd_rhs(const FluidParams& params,
                      std::vector<double> class_entry_rates,
                      const ArrivalProcess& arrival);

/// mtcd_rhs with the stage solves of a linearly implicit step, O(K) each.
/// With w_i = 1/i, W = sum_l w_l x_l, B = sum_l (mu/l) y_l and the share
/// s_i = w_i x_i / W, the Jacobian is J = J0 + u v^T: J0 holds one
/// lower-triangular 2x2 block per class, [[-d_i, 0], [d_i, -gamma]] on
/// (x_i, y_i) with d_i = eta mu/i + (B/W) w_i, and the seed-service and
/// share sums enter through the one product u = (-s; s),
/// v = (-(B/W) w; mu/l), solved by Sherman–Morrison. With no downloaders
/// (W = 0) the right-hand side sets the share to 0, and so does J.
math::OdeSystem mtcd_system(const FluidParams& params,
                            std::vector<double> class_entry_rates,
                            const ArrivalProcess& arrival = {});

/// Just the per-file factor A of eq. (2).
double mtcd_per_file_factor(const FluidParams& params,
                            std::span<const double> class_entry_rates);

}  // namespace btmf::fluid
