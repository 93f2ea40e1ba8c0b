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
// of a dense O(n^3) factorisation. The method is a stepper
// (RosenbrockStepper) that takes one accepted step at a time, like
// Dopri5Stepper, with a continuous extension over its last step, so a
// caller reads a trajectory between steps without ending one;
// fluid::sample_trajectory drives it for the stiff tail of every fluid
// transient.
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

/// RODAS3's coefficients, the ones RosenbrockStepper steps with.
const RosenbrockTableau& rodas3_tableau();

/// RODAS3, one accepted step at a time, under the contract of
/// Dopri5Stepper: start() places it at (t, y) with a first step and a
/// cap, step() retries its attempt until one passes the error test and
/// lands on t1 like a dopri5 step (a shortened landing step keeps the
/// proposal it was shortened from), and dense() evaluates a continuous
/// extension of the last step. The extension is the cubic Hermite
/// through the step's ends and their slopes f0 and f1, order 3 like the
/// method. f1 = f(t(), y()) is the next step's f0, so each accepted step
/// evaluates it at once: the extension costs no evaluation of f that the
/// next step does not use, and the calls to f do not depend on where the
/// extension is read. The stepper reads rtol, atol, max_steps and
/// clamp_nonnegative from its options.
class RosenbrockStepper {
 public:
  /// Holds `system` and `stages` (a solver made by system.stages()) by
  /// reference; both must outlive the stepper.
  RosenbrockStepper(const OdeSystem& system, StageSolver& stages,
                    const AdaptiveOptions& options);

  /// Places the stepper at (t, y), with `dt` as the first step to try
  /// and `max_dt` (> 0, may be +inf) capping every step.
  void start(double t, std::span<const double> y, double dt, double max_dt);

  /// Forgets f at (t(), y()), so the next step() evaluates it again: the
  /// call a caller makes when the right-hand side jumps at t().
  void refresh();

  /// Takes one accepted step towards t1 > t() and returns true, or
  /// returns false, at t() unchanged, as soon as a rejected attempt
  /// proposes a step below `stop_below`: the point where the caller
  /// finds the method no longer pays. Throws btmf::SolverError, with the
  /// stepper left at its last accepted step, on step-size underflow
  /// (below min_dt), an attempt that would pass max_steps since
  /// construction or a singular stage system.
  bool step(double t1, double min_dt, double stop_below = 0.0);

  /// Writes the continuous extension of the last accepted step at
  /// t in [t() - h(), t()] to `out`: order 3, and exactly the step's
  /// start and end states at its two ends. Valid until the next step()
  /// or start().
  void dense(double t, std::span<double> out) const;

  [[nodiscard]] double t() const { return t_; }
  [[nodiscard]] std::span<const double> y() const { return y_; }
  /// The last accepted step's length (0 before the first).
  [[nodiscard]] double h() const { return h_; }
  /// The step the controller proposes next.
  [[nodiscard]] double next_dt() const { return dt_; }
  [[nodiscard]] std::size_t accepted() const { return accepted_; }
  [[nodiscard]] std::size_t rejected() const { return rejected_; }

 private:
  [[nodiscard]] std::span<double> stage(std::size_t s) {
    return {u_.data() + s * n_, n_};
  }
  /// f and, for a non-autonomous system, df/dt at (t_, y_).
  void evaluate_f();

  const OdeSystem& system_;
  StageSolver& stages_;
  AdaptiveOptions options_;
  std::size_t n_ = 0;
  double t_ = 0.0;
  double t_prev_ = 0.0;  // the last accepted step's start
  double h_ = 0.0;
  double dt_ = 0.0;
  double max_dt_ = 0.0;
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
  bool fresh_ = false;  // f0_ and dfdt_ hold f and df/dt at (t_, y_)
  // The stages u_0..u_3 back to back: stage s is u[s*n, (s+1)*n).
  std::vector<double> u_;
  std::vector<double> y_;
  // A trial step's result; once the step is accepted, the state it
  // started from, with f there in f_prev_.
  std::vector<double> y1_;
  std::vector<double> f0_, f_prev_, dfdt_, y_stage_, err_;
};

}  // namespace btmf::math
