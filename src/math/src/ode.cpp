#include "btmf/math/ode.h"

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

// Dormand–Prince 5(4) Butcher tableau (Dormand & Prince, 1980).
constexpr double kC[7] = {0.0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0, 1.0};
constexpr double kA[7][6] = {
    {},
    {1.0 / 5},
    {3.0 / 40, 9.0 / 40},
    {44.0 / 45, -56.0 / 15, 32.0 / 9},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
    {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
};
// 5th-order solution weights (same as the 7th stage row: FSAL property).
constexpr double kB5[7] = {35.0 / 384,      0.0,         500.0 / 1113,
                           125.0 / 192,     -2187.0 / 6784, 11.0 / 84,
                           0.0};
// h * rho(J) beyond which a step sits on dopri5's stability bound, whose
// real-axis extent is about 3.3 (Hairer & Wanner II, Sec. IV.2).
constexpr double kStiffBound = 3.25;
// Embedded 4th-order weights.
constexpr double kB4[7] = {5179.0 / 57600,  0.0,          7571.0 / 16695,
                           393.0 / 640,     -92097.0 / 339200,
                           187.0 / 2100,    1.0 / 40};

}  // namespace

AdaptiveResult integrate_dopri5(const OdeRhs& rhs, std::vector<double> y0,
                                double t0, double t1,
                                const AdaptiveOptions& options,
                                const OdeObserver& observer) {
  BTMF_CHECK_MSG(t1 >= t0, "integrate_dopri5: t1 must be >= t0");
  BTMF_CHECK_MSG(options.rtol > 0.0 && options.atol > 0.0,
                 "integrate_dopri5: tolerances must be positive");

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
  const double max_dt = options.max_dt > 0.0 ? options.max_dt : span_t;
  dt = std::min(dt, max_dt);
  const double min_dt = span_t * 1e-14;

  // The seven stages k_0..k_6 back to back: stage s is k[s*n, (s+1)*n).
  // Every loop below runs stage-outer over contiguous rows and adds the
  // terms of each component in the same order as the textbook
  // component-outer form, so the arithmetic is the same bit for bit.
  std::vector<double> k(7 * n);
  const auto stage = [&k, n](std::size_t s) {
    return std::span<double>(k.data() + s * n, n);
  };
  std::vector<double> y_stage(n), acc5(n), acc4(n), y5(n), err(n);
  // The last stage's argument, kept apart from stage 5's so the stiffness
  // test can compare the two stages evaluated at t + h.
  std::vector<double> y_last(n);

  // FSAL: stage 0 of the next step reuses stage 6 of the accepted step.
  rhs(result.t, result.y, stage(0));

  while (result.t < t1) {
    if (dt < min_dt) {
      throw SolverError("dopri5: step size underflow at t = " +
                        std::to_string(result.t));
    }
    // The step that reaches t1 (or would leave less than min_dt of it)
    // is shortened or stretched to land on t1 exactly.
    double h = dt;
    const bool last = t1 - result.t - h < min_dt;
    if (last) h = t1 - result.t;

    for (std::size_t s = 1; s < 7; ++s) {
      std::vector<double>& arg = s == 6 ? y_last : y_stage;
      std::copy(result.y.begin(), result.y.end(), arg.begin());
      for (std::size_t j = 0; j < s; ++j) {
        const double a = h * kA[s][j];
        const double* kj = k.data() + j * n;
        for (std::size_t i = 0; i < n; ++i) arg[i] += a * kj[i];
      }
      rhs(result.t + kC[s] * h, arg, stage(s));
    }

    std::fill(acc5.begin(), acc5.end(), 0.0);
    std::fill(acc4.begin(), acc4.end(), 0.0);
    for (std::size_t s = 0; s < 7; ++s) {
      const double* ks = k.data() + s * n;
      for (std::size_t i = 0; i < n; ++i) {
        acc5[i] += kB5[s] * ks[i];
        acc4[i] += kB4[s] * ks[i];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      y5[i] = result.y[i] + h * acc5[i];
      err[i] = h * (acc5[i] - acc4[i]);
    }

    const double err_norm =
        all_finite(y5) ? wrms_norm(err, result.y, options.atol, options.rtol)
                       : std::numeric_limits<double>::infinity();

    if (err_norm <= 1.0) {
      // Stiffness test: stages 5 and 6 both sit at t + h, so
      // |k6 - k5| / |y6 - y5| estimates rho(J) along the error's direction.
      double dk = 0.0;
      double dy = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double a = k[6 * n + i] - k[5 * n + i];
        const double b = y_last[i] - y_stage[i];
        dk += a * a;
        dy += b * b;
      }
      if (dy > 0.0 && h * h * dk > kStiffBound * kStiffBound * dy) {
        ++result.stiff_steps;
        result.stiff_dt = h;
      }
      result.t = last ? t1 : result.t + h;
      result.y.swap(y5);
      const bool clamped =
          options.clamp_nonnegative && clamp_nonnegative(result.y);
      ++result.accepted_steps;
      if (observer) observer(result.t, result.y);
      // FSAL: k_6, evaluated at (t + h, y5), is the next step's k_0 —
      // unless the clip moved the state off y5.
      if (clamped) {
        rhs(result.t, result.y, stage(0));
      } else {
        std::copy(k.begin() + 6 * static_cast<std::ptrdiff_t>(n), k.end(),
                  k.begin());
      }
    } else {
      ++result.rejected_steps;
    }

    if (result.accepted_steps + result.rejected_steps > options.max_steps) {
      throw SolverError("dopri5: exceeded max_steps = " +
                        std::to_string(options.max_steps));
    }

    // Standard controller: dt *= 0.9 * err^(-1/5), limited to [0.2, 5] x.
    double factor = 5.0;
    if (err_norm > 0.0) {
      factor = 0.9 * std::pow(err_norm, -0.2);
      factor = std::clamp(factor, 0.2, 5.0);
    }
    dt = std::min(h * factor, max_dt);
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
