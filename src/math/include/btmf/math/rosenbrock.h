// A linearly implicit, L-stable Rosenbrock integrator for stiff tails.
//
// Once a fluid transient has relaxed to its slow modes, dopri5's step is
// pinned at its stability bound (about 3.3 / gamma) however loose the
// tolerance. A Rosenbrock method has no such bound: each step solves a
// few linear systems (c I - J) z = r with the Jacobian J = df/dy at the
// step's start, and takes the step the error estimate allows.
//
// The method is RODAS3 (Sandu et al. 1997): order 3 with an embedded
// order-2 estimate, four stages, stiffly accurate, R(inf) = 0. The
// integrator never forms J. The caller supplies a StageSolver that solves
// the stage systems, so a structured Jacobian costs O(n) per step instead
// of a dense O(n^3) factorisation.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "btmf/math/ode.h"

namespace btmf::math {

/// The linear algebra of one linearly implicit step. factor() fixes
/// J = df/dy at (t, y) and a shift c > 0; solve() then overwrites r with
/// z, (c I - J) z = r, as often as the step has stages. factor() throws
/// btmf::SolverError when c I - J is singular to working precision, so a
/// step never goes on with a non-finite z.
class StageSolver {
 public:
  virtual ~StageSolver() = default;
  virtual void factor(double t, std::span<const double> y, double c) = 0;
  virtual void solve(std::span<double> r) const = 0;
};

/// y' = f(t, y) together with the solves of its stage systems.
struct OdeSystem {
  OdeRhs rhs;
  /// Makes a StageSolver for this f. The solver holds one step's
  /// factorisation, so each thread integrating the system makes its own;
  /// the OdeSystem itself is shared freely.
  std::function<std::unique_ptr<StageSolver>()> stages;
  /// f does not depend on t, so df/dt = 0. Otherwise each step adds the
  /// df/dt term from a forward difference of f in t.
  bool autonomous = true;
};

/// A Rosenbrock method's published coefficients (Hairer & Wanner II,
/// Sec. IV.7): alpha_ij and gamma_ij for j < i, the diagonal gamma, the
/// solution weights b and the embedded weights b_hat.
struct RosenbrockTableau {
  static constexpr std::size_t kStages = 4;
  double gamma = 0.0;
  double alpha[kStages][kStages] = {};
  double gamma_ij[kStages][kStages] = {};
  double b[kStages] = {};
  double b_hat[kStages] = {};
};

/// Throws btmf::SolverError naming `what` unless `pivot` is finite and
/// above rounding level against `scale`: the check a StageSolver makes
/// on each denominator of its solves (a pivot, or the 1 - v^T M^{-1} u
/// of a Sherman–Morrison update).
void check_pivot(double pivot, double scale, const char* what);

/// RODAS3's coefficients, the ones integrate_rosenbrock steps with.
const RosenbrockTableau& rodas3_tableau();

/// Integrates system from t0 to t1 with RODAS3, solving the stage systems
/// with `stages` (made by system.stages(); one solver serves consecutive
/// integrations of the system), under the same contract as
/// integrate_dopri5: rtol, atol, initial_dt, max_dt, max_steps and
/// clamp_nonnegative mean the same, the final step lands exactly on t1,
/// and the trace records one "ode.integrate" span with the accepted and
/// rejected counts. Two differences, so that a trajectory split at
/// sample times keeps its step across the splits: when the landing step
/// is shortened to hit t1, next_dt carries the step proposed before the
/// shortening (or the landing step's own proposal, if larger), and with
/// max_dt = 0 no proposal is capped by t1 - t0. With
/// stop_below > 0 the integration also stops, at its last accepted step
/// (result.t < t1), once the controller proposes a step shorter than
/// stop_below: the point where the caller finds the method no longer
/// pays. Throws btmf::SolverError on step-size underflow, an exhausted
/// step budget or a singular stage system.
AdaptiveResult integrate_rosenbrock(const OdeSystem& system,
                                    StageSolver& stages,
                                    std::vector<double> y0, double t0,
                                    double t1,
                                    const AdaptiveOptions& options = {},
                                    double stop_below = 0.0);

}  // namespace btmf::math
