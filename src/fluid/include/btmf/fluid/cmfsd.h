// Collaborative Multi-File torrent Sequential Downloading — the paper's
// proposed scheme (Sec. 3.5, fluid model (5)).
//
// K interest-correlated files live in one torrent with K subtorrents. A
// class-i peer downloads its i files *sequentially* (full download
// bandwidth in the current subtorrent). Once it has finished at least one
// file it becomes a *partial seed*: a fraction (1 - P(i,j)) of its upload
// bandwidth serves a completed file as a "virtual seed", while the
// remaining P(i,j) mu plays tit-for-tat in the subtorrent it is currently
// downloading from, with
//     P(i,j) = 1    if i == 1 or j == 1 (nothing finished yet)
//     P(i,j) = rho  otherwise, rho in [0, 1].
//
// State: x^{i,j} = class-i peers downloading their j-th file (j <= i),
// y^i = class-i (real) seeds. With
//     S^{i,j} = mu x^{i,j} (sum_{l,m} (1 - P(l,m)) x^{l,m} + sum_l y^l)
//               / sum_{l,m} x^{l,m}
// (the virtual-seed + real-seed service pool shared in proportion to
// download capability, all downloaders having full bandwidth here), the
// fluid model is
//     dx^{i,1}/dt = lambda_i            - out(i,1)
//     dx^{i,j}/dt = out(i,j-1)          - out(i,j)         (1 < j <= i)
//     dy^{i}/dt   = out(i,i)            - gamma y^i
// where out(i,j) = mu eta P(i,j) x^{i,j} + S^{i,j}.
//
// The steady state reduces exactly to one scalar equation. At any steady
// state every stage of class i carries flux lambda_i (flow conservation),
// so with the pool rate S = mu (D + Y) / X (X = sum x, D = sum (1-P) x,
// Y = sum y) each population is
//     x^{i,j} = lambda_i / (mu eta P(i,j) + S),   y^i = lambda_i / gamma,
// and S is the root of g(S) = S X(S) - mu (D(S) + Y). g is strictly
// increasing (S X(S) rises, D(S) falls) from g(0+) < 0 to
// g(inf) = sum_i i lambda_i - mu Y, so a steady state exists, and is
// unique, iff sum_i i lambda_i > mu sum_i lambda_i / gamma. solve() finds
// the root with Brent's method and certifies it against the full RHS;
// math::find_equilibrium (transient integration + Newton polish) stays as
// the independent test oracle. A further analytic anchor:
//  * at rho = 1 the steady state download time per file equals the MFCD
//    factor A exactly: with Lambda_tot = sum_i i lambda_i and
//    Lambda_1 = sum_i lambda_i, every stage population is
//    x* = lambda_i / (mu eta + mu Y / X), giving
//    d = (gamma Lambda_tot - mu Lambda_1) / (gamma mu eta Lambda_tot),
//    which under the binomial rates reduces to the same expression as
//    mfcd_download_time_per_file (Lambda_tot = lambda0 K p,
//    Lambda_1 = lambda0 (1 - (1-p)^K)).
//
// The per-class-rho constructor generalises P(i,j) = rho_i, which is what
// the Adapt analysis (Sec. 4.3) needs: obedient classes run their own rho
// while cheater classes pin rho = 1.
#pragma once

#include <span>
#include <vector>

#include "btmf/fluid/demand.h"
#include "btmf/fluid/metrics.h"
#include "btmf/fluid/params.h"
#include "btmf/math/ode.h"
#include "btmf/math/rosenbrock.h"

namespace btmf::fluid {

struct CmfsdEquilibrium {
  std::vector<double> state;        ///< packed {x^{i,j}}, then {y^i}
  PerClassMetrics metrics;          ///< per-class T_i, D_i
  double residual_inf = 0.0;        ///< steady-state residual achieved
  double total_downloaders = 0.0;   ///< sum x^{i,j}
  double total_seeds = 0.0;         ///< sum y^i
  double virtual_seed_bandwidth = 0.0;  ///< sum (1-P) mu x^{i,j}
};

class CmfsdModel {
 public:
  /// Uniform bandwidth-allocation ratio rho for every class.
  CmfsdModel(const FluidParams& params,
             std::vector<double> class_entry_rates, double rho);

  /// Per-class rho (rho_per_class[k] applies to class k+1). Class-1 peers
  /// never have a finished file, so their entry is ignored by P(1, j).
  CmfsdModel(const FluidParams& params,
             std::vector<double> class_entry_rates,
             std::vector<double> rho_per_class);

  [[nodiscard]] unsigned num_classes() const { return num_classes_; }
  [[nodiscard]] std::size_t state_size() const;

  /// Index of x^{i,j} in the packed state (1-based i in [1,K], j in [1,i]).
  [[nodiscard]] std::size_t x_index(unsigned i, unsigned j) const;
  /// Index of y^i in the packed state.
  [[nodiscard]] std::size_t y_index(unsigned i) const;

  /// P(i,j): the TFT share of upload bandwidth for an (i,j) downloader.
  [[nodiscard]] double bandwidth_split(unsigned i, unsigned j) const;

  /// The autonomous ODE right-hand side over the packed state.
  [[nodiscard]] math::OdeRhs rhs() const;

  /// As rhs(), but with every class entry rate modulated in time by an
  /// ArrivalProcess: lambda_i(t) = arrival.rate_at(lambda_i, t). With a
  /// homogeneous process this returns exactly the autonomous RHS.
  [[nodiscard]] math::OdeRhs rhs(const ArrivalProcess& arrival) const;

  /// rhs(arrival) with the stage solves of a linearly implicit step, O(n)
  /// each. With X = sum x, D = sum (1 - P) x, Y = sum y and the pool rate
  /// S = mu (D + Y) / X, the Jacobian is J = J0 + u g^T: J0 is each
  /// class's lower-bidiagonal stage chain (diagonal -(mu eta P + S), the
  /// same rate feeding the next stage) ending in its seed row (-gamma),
  /// u_s = x_{s-1} - x_s along a chain (x_{s-1} = 0 at its head) and
  /// x_last on the seed row, and g = grad S: (mu (1 - P) - S) / X on the
  /// stages, mu / X on the seeds. The solve runs down the chains and adds
  /// the Sherman–Morrison term. With no downloaders (X = 0) the
  /// right-hand side sets S = 0, and so does J.
  [[nodiscard]] math::OdeSystem system(
      const ArrivalProcess& arrival = {}) const;

  /// The steady state, as the root of the scalar pool-rate equation (see
  /// the file comment). The point must satisfy the full RHS to a scaled
  /// residual of 1e-9. Throws btmf::SolverError, naming the condition,
  /// when sum_i i lambda_i <= mu sum_i lambda_i / gamma (no steady state
  /// exists).
  [[nodiscard]] CmfsdEquilibrium solve() const;

  /// Per-class metrics evaluated at an arbitrary state (used both by
  /// solve() and by tests that integrate the transient by hand).
  [[nodiscard]] PerClassMetrics metrics_from_state(
      std::span<const double> state) const;

  [[nodiscard]] const std::vector<double>& class_entry_rates() const {
    return rates_;
  }

  [[nodiscard]] const FluidParams& params() const { return params_; }

 private:
  FluidParams params_;
  std::vector<double> rates_;   ///< lambda_i, index 0 = class 1
  std::vector<double> rho_;     ///< per-class rho, index 0 = class 1
  unsigned num_classes_ = 0;
};

}  // namespace btmf::fluid
