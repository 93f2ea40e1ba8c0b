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
//
// The method is also a stepper (Dopri5Stepper) that takes one accepted
// step at a time and evaluates Hairer's continuous extension over it, so
// a caller can read a trajectory at any time without ending a step there.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "btmf/obs/trace.h"

namespace btmf::math {

/// Right-hand side f(t, y) -> dy/dt, written into `dydt` (same length as
/// y, and not overlapping it).
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
  /// method, the span of time and the accepted/rejected step counts.
  obs::TraceWriter* trace = nullptr;
};

struct AdaptiveResult {
  std::vector<double> y;       ///< state at the final time
  double t = 0.0;              ///< final time reached (exactly t1)
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  /// The step the controller proposed after the final accepted step (0 if
  /// no step was taken): the initial_dt for a call continuing from t1. A
  /// landing step shortened to hit t1 carries the proposal it was
  /// shortened from, or its own if that is larger.
  double next_dt = 0.0;
};

/// Dormand–Prince RK5(4) with embedded error estimate and standard
/// step-size control, one accepted step at a time.
///
/// start() places the stepper at (t, y); each step() then retries its
/// attempt until one passes the error test, and stops there. Between two
/// steps, dense() evaluates the order-4 continuous extension of the last
/// step (Hairer's CONTD5, built from its seven stages at no extra cost of
/// f). Every accepted step also estimates h * rho(J) from its two stages
/// at t + h, as Hairer's DOPRI5 does, and reports it in stiff() when it
/// exceeds 3.25, where the step sits on the method's stability bound
/// (Hairer & Wanner II, Sec. IV.2); the estimate reads values the step
/// computes anyway and moves no result. The stepper reads rtol, atol,
/// max_steps and clamp_nonnegative from its options; start() takes the
/// first step and the cap that initial_dt and max_dt name for
/// integrate_dopri5.
///
/// Arithmetic order, which the bit-exact tests pin: every loop runs
/// component-outer (one pass per stage argument, one for the 5th-order
/// state and its scaled error, one for the sums over the components,
/// one per dense() call), and each component adds its terms in stage
/// order from the textbook start (y_i, or 0 for the weighted sums of the
/// 5th- and 4th-order results and of the extension's correction), zero
/// weights included. Only the sums over the components (the error norm
/// and the stiffness test's two norms) couple components, and they add
/// in index order. No term is fused or reassociated, so any loop order
/// that keeps these sequences gives the same bits.
class Dopri5Stepper {
 public:
  /// Holds `rhs` by reference; it must outlive the stepper.
  Dopri5Stepper(const OdeRhs& rhs, const AdaptiveOptions& options);

  /// Places the stepper at (t, y), with `dt` as the first step to try
  /// and `max_dt` (> 0, may be +inf) capping every step. f is evaluated
  /// there at the next step().
  void start(double t, std::span<const double> y, double dt, double max_dt);

  /// Forgets f at (t(), y()), so the next step() evaluates it again: the
  /// call a caller makes when the right-hand side jumps at t().
  void refresh();

  /// Takes one accepted step towards t1 > t(). The step lands on t1
  /// exactly if it would reach t1 or leave less than `min_dt` of it; a
  /// landing step shortened to hit t1 leaves next_dt() at the proposal
  /// it was shortened from. Throws btmf::SolverError when the step falls
  /// below min_dt or the attempts since construction pass max_steps.
  void step(double t1, double min_dt);

  /// Writes the continuous extension of the last accepted step at
  /// t in [t() - h(), t()] to `out`: order 4, and exactly the step's
  /// start and end states at its two ends. Valid until the next step()
  /// or start().
  void dense(double t, std::span<double> out) const;

  [[nodiscard]] double t() const { return t_; }
  [[nodiscard]] std::span<const double> y() const { return y_; }
  /// The last accepted step's length (0 before the first).
  [[nodiscard]] double h() const { return h_; }
  /// The step the controller proposes next.
  [[nodiscard]] double next_dt() const { return dt_; }
  /// The last accepted step sat on the stability bound (h * rho(J) > 3.25).
  [[nodiscard]] bool stiff() const { return stiff_; }
  [[nodiscard]] std::size_t accepted() const { return accepted_; }
  [[nodiscard]] std::size_t rejected() const { return rejected_; }

 private:
  [[nodiscard]] std::span<double> stage(std::size_t s) {
    return {k_.data() + s * n_, n_};
  }

  const OdeRhs& rhs_;
  AdaptiveOptions options_;
  std::size_t n_ = 0;
  double t_ = 0.0;
  double t_prev_ = 0.0;  // the last accepted step's start
  double h_ = 0.0;
  double dt_ = 0.0;
  double max_dt_ = 0.0;
  bool stiff_ = false;
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
  // What stage 0 needs before the next step: the first-same-as-last
  // copy of the last step's stage 6 (deferred, so dense() still sees the
  // step's own stage 0), or a fresh evaluation of f.
  enum class Stage0 { kReady, kCopy, kEvaluate } stage0_ = Stage0::kEvaluate;
  // The seven stages k_0..k_6 back to back: stage s is k[s*n, (s+1)*n).
  std::vector<double> k_;
  std::vector<double> y_;
  // A trial step's 5th-order result; once the step is accepted, the
  // state it started from.
  std::vector<double> y5_;
  std::vector<double> y_stage_;
  // A trial step's error, component by component, scaled by each
  // component's tolerance: the terms of its weighted RMS norm.
  std::vector<double> err_;
  // The last stage's argument, kept apart from stage 5's so the stiffness
  // test can compare the two stages evaluated at t + h.
  std::vector<double> y_last_;
};

/// Dormand–Prince RK5(4) from t0 to t1: Dopri5Stepper's steps until the
/// last lands exactly on t1; a remainder below the underflow floor (1e-14
/// of the span) is absorbed into it. With max_dt = 0 the span caps every
/// step. Throws btmf::SolverError if the step size underflows or the step
/// budget is exhausted.
AdaptiveResult integrate_dopri5(const OdeRhs& rhs, std::vector<double> y0,
                                double t0, double t1,
                                const AdaptiveOptions& options = {},
                                const OdeObserver& observer = {});

/// The args of an "ode.integrate" span: the method, its [t0, t1] and the
/// accepted and rejected step counts.
std::string integrate_span_args(const char* method, double t0, double t1,
                                std::size_t accepted, std::size_t rejected);

}  // namespace btmf::math
