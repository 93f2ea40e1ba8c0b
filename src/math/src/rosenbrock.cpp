#include "btmf/math/rosenbrock.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "btmf/math/vec.h"
#include "btmf/util/check.h"
#include "btmf/util/error.h"

namespace btmf::math {

namespace {

constexpr std::size_t kStages = RosenbrockTableau::kStages;

/// The tableau rewritten for stages u_i = sum_{j <= i} gamma_ij k_j
/// (Hairer & Wanner II, (7.23)-(7.25)), so each stage is one solve of
/// (I / (h gamma) - J) u_i = f(t + alpha_i h, y + sum_j a_ij u_j)
///                          + sum_j (c_ij / h) u_j + gamma_i h df/dt,
/// and y1 = y + sum_i m_i u_i, with the error estimate
/// sum_i (m_i - m_hat_i) u_i.
struct StageForm {
  double gamma = 0.0;
  double a[kStages][kStages] = {};
  double c[kStages][kStages] = {};
  double alpha[kStages] = {};    ///< alpha_i = sum_j alpha_ij
  double gamma_t[kStages] = {};  ///< gamma_i = sum_{j <= i} gamma_ij
  double m[kStages] = {};
  double m_err[kStages] = {};    ///< m_i - m_hat_i
  bool at_y[kStages] = {};       ///< the stage evaluates f at (t, y)
};

StageForm stage_form(const RosenbrockTableau& tab) {
  // G = (gamma_ij) with gamma on the diagonal; G^{-1} by forward
  // substitution (G is lower triangular).
  double g[kStages][kStages] = {};
  for (std::size_t i = 0; i < kStages; ++i) {
    for (std::size_t j = 0; j < i; ++j) g[i][j] = tab.gamma_ij[i][j];
    g[i][i] = tab.gamma;
  }
  double inv[kStages][kStages] = {};
  for (std::size_t col = 0; col < kStages; ++col) {
    for (std::size_t i = col; i < kStages; ++i) {
      double sum = i == col ? 1.0 : 0.0;
      for (std::size_t j = col; j < i; ++j) sum -= g[i][j] * inv[j][col];
      inv[i][col] = sum / g[i][i];
    }
  }
  StageForm f;
  f.gamma = tab.gamma;
  for (std::size_t i = 0; i < kStages; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      for (std::size_t l = j; l < i; ++l) {
        f.a[i][j] += tab.alpha[i][l] * inv[l][j];
      }
      f.c[i][j] = -inv[i][j];
      f.alpha[i] += tab.alpha[i][j];
      f.gamma_t[i] += g[i][j];
    }
    f.gamma_t[i] += g[i][i];
    for (std::size_t l = i; l < kStages; ++l) {
      f.m[i] += tab.b[l] * inv[l][i];
      f.m_err[i] += (tab.b[l] - tab.b_hat[l]) * inv[l][i];
    }
    f.at_y[i] = f.alpha[i] == 0.0 &&
                std::all_of(f.a[i], f.a[i] + i,
                            [](double v) { return v == 0.0; });
  }
  return f;
}

}  // namespace

void check_pivot(double pivot, double scale, const char* what) {
  // 64 ulps of slack: a denominator that small has lost every digit to
  // cancellation, and dividing by it would hand the step noise or inf.
  if (!std::isfinite(pivot) ||
      !(std::abs(pivot) > 64.0 * std::numeric_limits<double>::epsilon() *
                              std::abs(scale))) {
    throw SolverError(std::string(what) +
                      ": singular stage system (denominator " +
                      std::to_string(pivot) + ")");
  }
}

const RosenbrockTableau& rodas3_tableau() {
  // Sandu, Verwer, Blom, Spee, Carmichael & Potra (1997), "Benchmarking
  // stiff ODE solvers for atmospheric chemistry problems II: Rosenbrock
  // solvers", Atmos. Environ. 31(20), RODAS3.
  static const RosenbrockTableau tableau = [] {
    RosenbrockTableau t;
    t.gamma = 0.5;
    t.alpha[2][0] = 1.0;
    t.alpha[3][0] = 0.75;
    t.alpha[3][1] = -0.25;
    t.alpha[3][2] = 0.5;
    t.gamma_ij[1][0] = 1.0;
    t.gamma_ij[2][0] = -0.25;
    t.gamma_ij[2][1] = -0.25;
    t.gamma_ij[3][0] = 1.0 / 12.0;
    t.gamma_ij[3][1] = 1.0 / 12.0;
    t.gamma_ij[3][2] = -2.0 / 3.0;
    const double b[] = {5.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0, 0.5};
    const double b_hat[] = {0.75, -0.25, 0.5, 0.0};
    std::copy(std::begin(b), std::end(b), t.b);
    std::copy(std::begin(b_hat), std::end(b_hat), t.b_hat);
    return t;
  }();
  return tableau;
}

RosenbrockStepper::RosenbrockStepper(const OdeSystem& system,
                                     StageSolver& stages,
                                     const AdaptiveOptions& options)
    : system_(system), stages_(stages), options_(options) {
  BTMF_CHECK_MSG(options.rtol > 0.0 && options.atol > 0.0,
                 "rosenbrock: tolerances must be positive");
  BTMF_CHECK_MSG(system.rhs, "rosenbrock: the system needs f");
}

void RosenbrockStepper::start(double t, std::span<const double> y, double dt,
                              double max_dt) {
  if (y.size() != n_) {
    n_ = y.size();
    u_.assign(kStages * n_, 0.0);
    for (std::vector<double>* v :
         {&y_, &y1_, &f0_, &f_prev_, &dfdt_, &y_stage_, &err_}) {
      v->assign(n_, 0.0);
    }
  }
  std::copy(y.begin(), y.end(), y_.begin());
  t_ = t;
  h_ = 0.0;
  max_dt_ = max_dt;
  dt_ = std::min(dt, max_dt);
  fresh_ = false;
}

void RosenbrockStepper::refresh() { fresh_ = false; }

void RosenbrockStepper::evaluate_f() {
  system_.rhs(t_, y_, f0_);
  if (!system_.autonomous) {
    const double delta = std::sqrt(std::numeric_limits<double>::epsilon()) *
                         std::max(1.0, std::abs(t_));
    system_.rhs(t_ + delta, y_, dfdt_);
    for (std::size_t i = 0; i < n_; ++i) dfdt_[i] = (dfdt_[i] - f0_[i]) / delta;
  }
  fresh_ = true;
}

bool RosenbrockStepper::step(double t1, double min_dt, double stop_below) {
  static const StageForm form = stage_form(rodas3_tableau());
  for (;;) {
    if (dt_ < min_dt) {
      throw SolverError("rosenbrock: step size underflow at t = " +
                        std::to_string(t_));
    }
    if (accepted_ + rejected_ >= options_.max_steps) {
      throw SolverError("rosenbrock: exceeded max_steps = " +
                        std::to_string(options_.max_steps));
    }
    double h = dt_;
    const bool last = t1 - t_ - h < min_dt;
    if (last) h = t1 - t_;

    if (!fresh_) evaluate_f();
    stages_.factor(t_, y_, 1.0 / (h * form.gamma));

    for (std::size_t s = 0; s < kStages; ++s) {
      const std::span<double> us = stage(s);
      if (form.at_y[s]) {
        std::copy(f0_.begin(), f0_.end(), us.begin());
      } else {
        std::copy(y_.begin(), y_.end(), y_stage_.begin());
        for (std::size_t j = 0; j < s; ++j) {
          axpy(form.a[s][j], stage(j), y_stage_);
        }
        system_.rhs(t_ + form.alpha[s] * h, y_stage_, us);
      }
      for (std::size_t j = 0; j < s; ++j) axpy(form.c[s][j] / h, stage(j), us);
      if (!system_.autonomous && form.gamma_t[s] != 0.0) {
        axpy(form.gamma_t[s] * h, dfdt_, us);
      }
      stages_.solve(us);
    }

    std::copy(y_.begin(), y_.end(), y1_.begin());
    std::fill(err_.begin(), err_.end(), 0.0);
    for (std::size_t s = 0; s < kStages; ++s) {
      axpy(form.m[s], stage(s), y1_);
      axpy(form.m_err[s], stage(s), err_);
    }
    const double err_norm =
        all_finite(y1_) ? wrms_norm(err_, y_, options_.atol, options_.rtol)
                        : std::numeric_limits<double>::infinity();

    const bool accepted = err_norm <= 1.0;
    if (accepted) {
      t_prev_ = t_;
      h_ = h;
      t_ = last ? t1 : t_ + h;
      y_.swap(y1_);
      if (options_.clamp_nonnegative) clamp_nonnegative(y_);
      ++accepted_;
      // f at the new state: the extension's end slope and the next
      // step's f0.
      f_prev_.swap(f0_);
      evaluate_f();
    } else {
      ++rejected_;
    }

    // dt *= 0.9 * err^(-1/3) (the embedded formula has order 2), limited
    // to [0.2, 5] x. An accepted landing step that was shortened keeps
    // the proposal it was shortened from.
    double factor = 5.0;
    if (err_norm > 0.0) {
      factor = std::clamp(0.9 * std::cbrt(1.0 / err_norm), 0.2, 5.0);
    }
    const double proposal = std::min(h * factor, max_dt_);
    dt_ = accepted && h < dt_ ? std::max(proposal, dt_) : proposal;
    if (accepted) return true;
    if (dt_ < stop_below) return false;
  }
}

void RosenbrockStepper::dense(double t, std::span<double> out) const {
  BTMF_ASSERT(out.size() == n_);
  if (t == t_) {
    std::copy(y_.begin(), y_.end(), out.begin());
    return;
  }
  // y(t_prev + theta h) = y0 + theta (dy + theta1 (b + theta c)) with
  // dy = y1 - y0, b = h f0 - dy and c = dy - h f1 - b: the cubic through
  // both ends with slopes f0 and f1 (Dopri5Stepper::dense's form without
  // its order-4 term).
  const double h = h_;
  const double theta = (t - t_prev_) / h;
  const double theta1 = 1.0 - theta;
  const double* __restrict const y0 = y1_.data();
  const double* __restrict const y1 = y_.data();
  const double* __restrict const f0 = f_prev_.data();
  const double* __restrict const f1 = f0_.data();
  double* __restrict const y = out.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const double dy = y1[i] - y0[i];
    const double b = h * f0[i] - dy;
    const double c = dy - h * f1[i] - b;
    y[i] = y0[i] + theta * (dy + theta1 * (b + theta * c));
  }
}

}  // namespace btmf::math
