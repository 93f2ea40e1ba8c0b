// The adaptive Dormand–Prince 5(4) integrator with PI-free standard step
// control: the transient of the equilibrium finder, and the head of
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
// The method is a stepper (Dopri5Stepper) that takes one accepted step
// at a time and evaluates Hairer's continuous extension over it, so a
// caller can read a trajectory at any time without ending a step there.
// Its callers (fluid::sample_trajectory, math::find_equilibrium) drive
// it in their own loops.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "btmf/obs/trace.h"

namespace btmf::math {

/// Right-hand side f(t, y) -> dy/dt, written into `dydt` (same length as
/// y, and not overlapping it).
using OdeRhs =
    std::function<void(double t, std::span<const double> y,
                       std::span<double> dydt)>;

struct AdaptiveOptions {
  double rtol = 1e-8;          ///< relative tolerance
  double atol = 1e-10;         ///< absolute tolerance
  double max_dt = 0.0;         ///< 0 = no cap
  std::size_t max_steps = 1'000'000;
  /// Clip tiny negative populations after each accepted step. The
  /// first-same-as-last stage is reused unless the clip changed the state.
  bool clamp_nonnegative = false;

  /// Optional Chrome-trace writer (non-owning, null = inert): each run of
  /// one stepper becomes an "ode.integrate" span (IntegrateSpan).
  obs::TraceWriter* trace = nullptr;
};

/// Dormand–Prince RK5(4) with embedded error estimate and standard
/// step-size control, one accepted step at a time.
///
/// start() places the stepper at (t, y); each step() then retries its
/// attempt until one passes the error test, and stops there. The new
/// state is the last stage's argument, y + h sum_j b5_j k_j (the
/// first-same-as-last row, a_7j = b5_j), so the last stage is f at the
/// new state exactly: fsal() hands it to the caller, and the next step
/// starts from it. The error is h sum_j e_j k_j with e = b5 - b4. Between
/// two steps, dense() evaluates the order-4 continuous extension of the
/// last step (Hairer's CONTD5, built from its seven stages at no extra
/// cost of f). Every accepted step also estimates h * rho(J) from its two
/// stages at t + h, as Hairer's DOPRI5 does, and reports it in stiff()
/// when it exceeds 3.25, where the step sits on the method's stability
/// bound (Hairer & Wanner II, Sec. IV.2); the estimate reads values the
/// step computes anyway and moves no result. The stepper reads rtol,
/// atol, max_steps and clamp_nonnegative from its options; start() takes
/// the first step and the cap.
///
/// Arithmetic order, which the bit-exact tests pin: every loop runs
/// component-outer (one pass per stage argument, one for the scaled
/// error, one for the sums over the components, one per dense() call),
/// and each component adds its terms in stage order from the textbook
/// start (y_i, or 0 for the weighted sums of the error and of the
/// extension's correction), zero weights included. Only the sums over
/// the components (the error norm and the stiffness test's two norms)
/// couple components, and they add in index order. No term is fused or
/// reassociated, so any loop order that keeps these sequences gives the
/// same bits.
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
  /// it was shortened from. Throws btmf::SolverError, with the stepper
  /// left at its last accepted step, when the step falls below min_dt or
  /// an attempt would pass max_steps since construction.
  void step(double t1, double min_dt);

  /// Writes the continuous extension of the last accepted step at
  /// t in [t() - h(), t()] to `out`: order 4, and exactly the step's
  /// start and end states at its two ends. Valid until the next step()
  /// or start().
  void dense(double t, std::span<double> out) const;

  /// f at (t(), y()) when the last accepted step left the state where
  /// its last stage evaluated f; empty before the first step, after a
  /// clamp moved the state, and after start() or refresh(). Valid until
  /// the next step() or start().
  [[nodiscard]] std::span<const double> fsal() const;

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
  std::vector<double> y_stage_;
  // A trial step's error, component by component, scaled by each
  // component's tolerance: the terms of its weighted RMS norm.
  std::vector<double> err_;
  // The last stage's argument, kept apart from stage 5's so the stiffness
  // test can compare the two stages evaluated at t + h: a trial step's
  // new state; once the step is accepted, the state it started from.
  std::vector<double> y_last_;
};

/// One "ode.integrate" span per run of one stepper (Dopri5Stepper or
/// RosenbrockStepper), stamped with the method, the run's [t0, t1] and
/// its accepted and rejected step counts. Inert when `trace` is null.
class IntegrateSpan {
 public:
  explicit IntegrateSpan(obs::TraceWriter* trace) : trace_(trace) {}

  /// Opens the span at the stepper's t() and step counts.
  template <class Stepper>
  void begin(const Stepper& stepper) {
    if (trace_ == nullptr) return;
    span_.emplace(trace_->span("ode.integrate"));
    t0_ = stepper.t();
    accepted_ = stepper.accepted();
    rejected_ = stepper.rejected();
  }

  /// Closes the span opened by begin(), with the steps taken since.
  template <class Stepper>
  void end(const char* method, const Stepper& stepper) {
    if (!span_.has_value()) return;
    close(method, stepper.t(), stepper.accepted() - accepted_,
          stepper.rejected() - rejected_);
  }

 private:
  void close(const char* method, double t1, std::size_t accepted,
             std::size_t rejected);

  obs::TraceWriter* trace_;
  std::optional<obs::TraceWriter::Span> span_;
  double t0_ = 0.0;
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace btmf::math
