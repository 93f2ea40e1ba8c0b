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
// The order-4 continuous extension's stage weights (Hairer, Norsett &
// Wanner I, Sec. II.6; the d_i of DOPRI5's CONTD5). Stage 1 has none.
constexpr double kD[7] = {-12715105075.0 / 11282082432.0,
                          0.0,
                          87487479700.0 / 32700410799.0,
                          -10690763975.0 / 1880347072.0,
                          701980252875.0 / 199316789632.0,
                          -1453857185.0 / 822651844.0,
                          69997945.0 / 29380423.0};

}  // namespace

Dopri5Stepper::Dopri5Stepper(const OdeRhs& rhs, const AdaptiveOptions& options)
    : rhs_(rhs), options_(options) {
  BTMF_CHECK_MSG(options.rtol > 0.0 && options.atol > 0.0,
                 "integrate_dopri5: tolerances must be positive");
}

void Dopri5Stepper::start(double t, std::span<const double> y, double dt,
                          double max_dt) {
  if (y.size() != n_) {
    n_ = y.size();
    k_.assign(7 * n_, 0.0);
    for (std::vector<double>* v :
         {&y_, &y5_, &y_stage_, &acc5_, &acc4_, &err_, &y_last_}) {
      v->assign(n_, 0.0);
    }
  }
  std::copy(y.begin(), y.end(), y_.begin());
  t_ = t;
  h_ = 0.0;
  max_dt_ = max_dt;
  dt_ = std::min(dt, max_dt);
  stiff_ = false;
  stage0_ = Stage0::kEvaluate;
}

void Dopri5Stepper::refresh() { stage0_ = Stage0::kEvaluate; }

void Dopri5Stepper::step(double t1, double min_dt) {
  const std::size_t n = n_;
  // FSAL: stage 0 of this step reuses stage 6 of the last accepted one,
  // unless the clip moved the state off y5 or the caller moved it.
  if (stage0_ == Stage0::kEvaluate) {
    rhs_(t_, y_, stage(0));
  } else if (stage0_ == Stage0::kCopy) {
    std::copy(k_.begin() + 6 * static_cast<std::ptrdiff_t>(n), k_.end(),
              k_.begin());
  }
  stage0_ = Stage0::kReady;

  // Every loop below runs stage-outer over contiguous rows and adds the
  // terms of each component in the same order as the textbook
  // component-outer form, so the arithmetic is the same bit for bit.
  for (;;) {
    if (dt_ < min_dt) {
      throw SolverError("dopri5: step size underflow at t = " +
                        std::to_string(t_));
    }
    // The step that reaches t1 (or would leave less than min_dt of it)
    // is shortened or stretched to land on t1 exactly.
    double h = dt_;
    const bool last = t1 - t_ - h < min_dt;
    if (last) h = t1 - t_;

    for (std::size_t s = 1; s < 7; ++s) {
      std::vector<double>& arg = s == 6 ? y_last_ : y_stage_;
      std::copy(y_.begin(), y_.end(), arg.begin());
      for (std::size_t j = 0; j < s; ++j) {
        const double a = h * kA[s][j];
        const double* kj = k_.data() + j * n;
        for (std::size_t i = 0; i < n; ++i) arg[i] += a * kj[i];
      }
      rhs_(t_ + kC[s] * h, arg, stage(s));
    }

    std::fill(acc5_.begin(), acc5_.end(), 0.0);
    std::fill(acc4_.begin(), acc4_.end(), 0.0);
    for (std::size_t s = 0; s < 7; ++s) {
      const double* ks = k_.data() + s * n;
      for (std::size_t i = 0; i < n; ++i) {
        acc5_[i] += kB5[s] * ks[i];
        acc4_[i] += kB4[s] * ks[i];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      y5_[i] = y_[i] + h * acc5_[i];
      err_[i] = h * (acc5_[i] - acc4_[i]);
    }

    const double err_norm =
        all_finite(y5_) ? wrms_norm(err_, y_, options_.atol, options_.rtol)
                        : std::numeric_limits<double>::infinity();

    const bool accepted = err_norm <= 1.0;
    if (accepted) {
      // Stiffness test: stages 5 and 6 both sit at t + h, so
      // |k6 - k5| / |y6 - y5| estimates rho(J) along the error's direction.
      double dk = 0.0;
      double dy = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double a = k_[6 * n + i] - k_[5 * n + i];
        const double b = y_last_[i] - y_stage_[i];
        dk += a * a;
        dy += b * b;
      }
      stiff_ = dy > 0.0 && h * h * dk > kStiffBound * kStiffBound * dy;
      t_prev_ = t_;
      h_ = h;
      t_ = last ? t1 : t_ + h;
      y_.swap(y5_);
      const bool clamped =
          options_.clamp_nonnegative && clamp_nonnegative(y_);
      ++accepted_;
      // k_6, evaluated at (t + h, y5), is the next step's k_0 — unless
      // the clip moved the state off y5.
      stage0_ = clamped ? Stage0::kEvaluate : Stage0::kCopy;
    } else {
      ++rejected_;
    }

    if (accepted_ + rejected_ > options_.max_steps) {
      throw SolverError("dopri5: exceeded max_steps = " +
                        std::to_string(options_.max_steps));
    }

    // Standard controller: dt *= 0.9 * err^(-1/5), limited to [0.2, 5] x.
    // An accepted landing step that was shortened keeps the proposal it
    // was shortened from.
    double factor = 5.0;
    if (err_norm > 0.0) {
      factor = 0.9 * std::pow(err_norm, -0.2);
      factor = std::clamp(factor, 0.2, 5.0);
    }
    const double proposal = std::min(h * factor, max_dt_);
    dt_ = accepted && h < dt_ ? std::max(proposal, dt_) : proposal;
    if (accepted) return;
  }
}

void Dopri5Stepper::dense(double t, std::span<double> out) const {
  BTMF_ASSERT(out.size() == n_);
  if (t == t_) {
    std::copy(y_.begin(), y_.end(), out.begin());
    return;
  }
  // y(t_prev + theta h) = y0 + theta (dy + theta1 (b + theta (c +
  // theta1 d))) with dy = y1 - y0, b = h k_0 - dy, c = dy - h k_6 - b and
  // d = h sum_s d_s k_s: the cubic Hermite through both ends and their
  // slopes plus the order-4 correction d (CONTD5).
  const double theta = (t - t_prev_) / h_;
  const double theta1 = 1.0 - theta;
  const double* k = k_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const double y0 = y5_[i];
    const double dy = y_[i] - y0;
    const double b = h_ * k[i] - dy;
    const double c = dy - h_ * k[6 * n_ + i] - b;
    double d = 0.0;
    for (std::size_t s = 0; s < 7; ++s) d += kD[s] * k[s * n_ + i];
    out[i] = y0 + theta * (dy + theta1 * (b + theta * (c + theta1 * h_ * d)));
  }
}

AdaptiveResult integrate_dopri5(const OdeRhs& rhs, std::vector<double> y0,
                                double t0, double t1,
                                const AdaptiveOptions& options,
                                const OdeObserver& observer) {
  BTMF_CHECK_MSG(t1 >= t0, "integrate_dopri5: t1 must be >= t0");
  Dopri5Stepper stepper(rhs, options);

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
  const double dt = options.initial_dt > 0.0 ? options.initial_dt
                                             : span_t / 100.0;
  const double max_dt = options.max_dt > 0.0 ? options.max_dt : span_t;
  const double min_dt = span_t * 1e-14;
  stepper.start(t0, result.y, dt, max_dt);
  while (stepper.t() < t1) {
    stepper.step(t1, min_dt);
    if (observer) observer(stepper.t(), stepper.y());
  }
  std::copy(stepper.y().begin(), stepper.y().end(), result.y.begin());
  result.t = stepper.t();
  result.accepted_steps = stepper.accepted();
  result.rejected_steps = stepper.rejected();
  result.next_dt = stepper.next_dt();
  if (span.has_value()) {
    span->set_args(integrate_span_args("dopri5", t0, t1, stepper.accepted(),
                                       stepper.rejected()));
  }
  return result;
}

std::string integrate_span_args(const char* method, double t0, double t1,
                                std::size_t accepted, std::size_t rejected) {
  std::ostringstream args;
  args << "{\"method\": \"" << method << "\", \"t0\": " << t0
       << ", \"t1\": " << t1 << ", \"accepted\": " << accepted
       << ", \"rejected\": " << rejected << "}";
  return args.str();
}

}  // namespace btmf::math
