#include "btmf/math/rosenbrock.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

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

AdaptiveResult integrate_rosenbrock(const OdeSystem& system,
                                    StageSolver& stages,
                                    std::vector<double> y0, double t0,
                                    double t1,
                                    const AdaptiveOptions& options,
                                    double stop_below) {
  BTMF_CHECK_MSG(t1 >= t0, "integrate_rosenbrock: t1 must be >= t0");
  BTMF_CHECK_MSG(options.rtol > 0.0 && options.atol > 0.0,
                 "integrate_rosenbrock: tolerances must be positive");
  BTMF_CHECK_MSG(system.rhs, "integrate_rosenbrock: the system needs f");
  static const StageForm form = stage_form(rodas3_tableau());

  const std::size_t n = y0.size();
  AdaptiveResult result;
  result.y = std::move(y0);
  result.t = t0;
  if (t1 == t0 || n == 0) return result;

  std::optional<obs::TraceWriter::Span> span;
  if (options.trace != nullptr) {
    span.emplace(options.trace->span("ode.integrate"));
  }

  const double span_t = t1 - t0;
  double dt = options.initial_dt > 0.0 ? options.initial_dt : span_t / 100.0;
  // Uncapped by the span (unlike dopri5), so the proposal a trajectory
  // carries from one piece to the next may outgrow the pieces.
  const double max_dt = options.max_dt > 0.0
                            ? options.max_dt
                            : std::numeric_limits<double>::infinity();
  dt = std::min(dt, max_dt);
  const double min_dt = span_t * 1e-14;

  // The stages u_0..u_3 back to back: stage s is u[s*n, (s+1)*n).
  std::vector<double> u(kStages * n);
  const auto stage = [&u, n](std::size_t s) {
    return std::span<double>(u.data() + s * n, n);
  };
  std::vector<double> f0(n), dfdt(n), y_stage(n), y1(n), err(n);
  bool fresh = false;  // f0 and dfdt hold f and df/dt at (t, y)

  while (result.t < t1) {
    if (dt < min_dt) {
      throw SolverError("rosenbrock: step size underflow at t = " +
                        std::to_string(result.t));
    }
    double h = dt;
    const bool last = t1 - result.t - h < min_dt;
    if (last) h = t1 - result.t;

    if (!fresh) {
      system.rhs(result.t, result.y, f0);
      if (!system.autonomous) {
        const double delta = std::sqrt(std::numeric_limits<double>::epsilon()) *
                             std::max(1.0, std::abs(result.t));
        system.rhs(result.t + delta, result.y, dfdt);
        for (std::size_t i = 0; i < n; ++i) dfdt[i] = (dfdt[i] - f0[i]) / delta;
      }
      fresh = true;
    }
    stages.factor(result.t, result.y, 1.0 / (h * form.gamma));

    for (std::size_t s = 0; s < kStages; ++s) {
      const std::span<double> us = stage(s);
      if (form.at_y[s]) {
        std::copy(f0.begin(), f0.end(), us.begin());
      } else {
        std::copy(result.y.begin(), result.y.end(), y_stage.begin());
        for (std::size_t j = 0; j < s; ++j) {
          axpy(form.a[s][j], stage(j), y_stage);
        }
        system.rhs(result.t + form.alpha[s] * h, y_stage, us);
      }
      for (std::size_t j = 0; j < s; ++j) axpy(form.c[s][j] / h, stage(j), us);
      if (!system.autonomous && form.gamma_t[s] != 0.0) {
        axpy(form.gamma_t[s] * h, dfdt, us);
      }
      stages.solve(us);
    }

    std::copy(result.y.begin(), result.y.end(), y1.begin());
    std::fill(err.begin(), err.end(), 0.0);
    for (std::size_t s = 0; s < kStages; ++s) {
      axpy(form.m[s], stage(s), y1);
      axpy(form.m_err[s], stage(s), err);
    }
    const double err_norm =
        all_finite(y1) ? wrms_norm(err, result.y, options.atol, options.rtol)
                       : std::numeric_limits<double>::infinity();

    const bool accepted = err_norm <= 1.0;
    if (accepted) {
      result.t = last ? t1 : result.t + h;
      result.y.swap(y1);
      if (options.clamp_nonnegative) clamp_nonnegative(result.y);
      fresh = false;
      ++result.accepted_steps;
    } else {
      ++result.rejected_steps;
    }

    if (result.accepted_steps + result.rejected_steps > options.max_steps) {
      throw SolverError("rosenbrock: exceeded max_steps = " +
                        std::to_string(options.max_steps));
    }

    // dt *= 0.9 * err^(-1/3) (the embedded formula has order 2), limited
    // to [0.2, 5] x. An accepted landing step that was shortened keeps
    // the proposal it was shortened from.
    double factor = 5.0;
    if (err_norm > 0.0) {
      factor = std::clamp(0.9 * std::cbrt(1.0 / err_norm), 0.2, 5.0);
    }
    const double proposal = std::min(h * factor, max_dt);
    dt = accepted && h < dt ? std::max(proposal, dt) : proposal;
    if (dt < stop_below) break;
  }
  result.next_dt = dt;
  if (span.has_value()) {
    std::ostringstream args;
    args << "{\"t0\": " << t0 << ", \"t1\": " << t1
         << ", \"accepted\": " << result.accepted_steps
         << ", \"rejected\": " << result.rejected_steps << "}";
    span->set_args(args.str());
  }
  return result;
}

}  // namespace btmf::math
