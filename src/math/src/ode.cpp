#include "btmf/math/ode.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

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
// The error weights e = b5 - b4, exactly (Hairer's DOPRI5): b5 is the
// last stage's row above (first same as last, with b5_6 = 0) and b4 the
// embedded 4th-order weights 5179/57600, 0, 7571/16695, 393/640,
// -92097/339200, 187/2100, 1/40.
constexpr double kE[7] = {71.0 / 57600,      0.0,         -71.0 / 16695,
                          71.0 / 1920,       -17253.0 / 339200,
                          22.0 / 525,        -1.0 / 40};
// h * rho(J) beyond which a step sits on dopri5's stability bound, whose
// real-axis extent is about 3.3 (Hairer & Wanner II, Sec. IV.2).
constexpr double kStiffBound = 3.25;
// The order-4 continuous extension's stage weights (Hairer, Norsett &
// Wanner I, Sec. II.6; the d_i of DOPRI5's CONTD5). Stage 1 has none.
constexpr double kD[7] = {-12715105075.0 / 11282082432.0,
                          0.0,
                          87487479700.0 / 32700410799.0,
                          -10690763975.0 / 1880347072.0,
                          701980252875.0 / 199316789632.0,
                          -1453857185.0 / 822651844.0,
                          69997945.0 / 29380423.0};

constexpr std::size_t kStages = 7;

/// Stage S's argument y + sum_{j < S} (h a_Sj) k_j, where row j of `k`
/// is k_j. Each component adds its S terms to y in j order.
template <std::size_t S>
void stage_argument(double h, std::size_t n, const double* __restrict y,
                    const double* __restrict k, double* __restrict arg) {
  double a[S];
  for (std::size_t j = 0; j < S; ++j) a[j] = h * kA[S][j];
  for (std::size_t i = 0; i < n; ++i) {
    double v = y[i];
    for (std::size_t j = 0; j < S; ++j) v += a[j] * k[j * n + i];
    arg[i] = v;
  }
}

/// stage_argument<S> for S = 1, ..., 6 at index S - 1.
constexpr auto kStageArgument =
    []<std::size_t... S>(std::index_sequence<S...>) {
      return std::array{&stage_argument<S + 1>...};
    }(std::make_index_sequence<kStages - 1>{});

/// Each component's term of the error's weighted RMS norm (wrms_norm),
/// h sum_s e_s k_s / (atol + rtol |y|). Each component adds its seven
/// terms in stage order from 0, zero weights included.
void scaled_error(double h, double atol, double rtol, std::size_t n,
                  const double* __restrict y, const double* __restrict k,
                  double* __restrict err) {
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t s = 0; s < kStages; ++s) acc += kE[s] * k[s * n + i];
    err[i] = h * acc / (atol + rtol * std::abs(y[i]));
  }
}

}  // namespace

Dopri5Stepper::Dopri5Stepper(const OdeRhs& rhs, const AdaptiveOptions& options)
    : rhs_(rhs), options_(options) {
  BTMF_CHECK_MSG(options.rtol > 0.0 && options.atol > 0.0,
                 "dopri5: tolerances must be positive");
}

void Dopri5Stepper::start(double t, std::span<const double> y, double dt,
                          double max_dt) {
  if (y.size() != n_) {
    n_ = y.size();
    k_.assign(kStages * n_, 0.0);
    for (std::vector<double>* v : {&y_, &y_stage_, &y_last_, &err_}) {
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
  // unless the clip moved the state or the caller moved it.
  if (stage0_ == Stage0::kEvaluate) {
    rhs_(t_, y_, stage(0));
  } else if (stage0_ == Stage0::kCopy) {
    std::copy(k_.begin() + 6 * static_cast<std::ptrdiff_t>(n), k_.end(),
              k_.begin());
  }
  stage0_ = Stage0::kReady;

  // Every loop below runs component-outer: one pass over the components
  // for each stage argument, one for the scaled error, and one for the
  // sums over the components. Each component adds its terms in stage
  // order from the textbook form's start (y, or 0 for the weighted sum),
  // zero weights included, and each sum over the components adds its
  // terms in index order, so every result is the textbook form's bit for
  // bit. The first two kinds of pass write each component on its own
  // from restrict-qualified rows, which the compiler vectorises; the sums
  // stay in order, and so serial.
  for (;;) {
    if (dt_ < min_dt) {
      throw SolverError("dopri5: step size underflow at t = " +
                        std::to_string(t_));
    }
    if (accepted_ + rejected_ >= options_.max_steps) {
      throw SolverError("dopri5: exceeded max_steps = " +
                        std::to_string(options_.max_steps));
    }
    // The step that reaches t1 (or would leave less than min_dt of it)
    // is shortened or stretched to land on t1 exactly.
    double h = dt_;
    const bool last = t1 - t_ - h < min_dt;
    if (last) h = t1 - t_;

    const double* const y = y_.data();
    const double* const k = k_.data();
    for (std::size_t s = 1; s < kStages; ++s) {
      std::vector<double>& arg = s == 6 ? y_last_ : y_stage_;
      kStageArgument[s - 1](h, n, y, k, arg.data());
      rhs_(t_ + kC[s] * h, arg, stage(s));
    }

    scaled_error(h, options_.atol, options_.rtol, n, y, k, err_.data());
    // The error norm, and the stiffness test's sums: stages 5 and 6 both
    // sit at t + h, so |k6 - k5| / |y6 - y5| estimates rho(J) along the
    // error's direction. The new state is stage 6's argument. A state
    // that is not finite fails the step whatever the norm reads.
    bool finite = true;
    bool negative = false;
    double err_sum = 0.0;
    double dk = 0.0;
    double dy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      finite &= std::isfinite(y_last_[i]);
      negative |= y_last_[i] < 0.0;
      err_sum += err_[i] * err_[i];
      const double a = k[6 * n + i] - k[5 * n + i];
      const double b = y_last_[i] - y_stage_[i];
      dk += a * a;
      dy += b * b;
    }
    const double err_norm =
        !finite ? std::numeric_limits<double>::infinity()
        : n == 0 ? 0.0
                 : std::sqrt(err_sum / static_cast<double>(n));

    const bool accepted = err_norm <= 1.0;
    if (accepted) {
      stiff_ = dy > 0.0 && h * h * dk > kStiffBound * kStiffBound * dy;
      t_prev_ = t_;
      h_ = h;
      t_ = last ? t1 : t_ + h;
      y_.swap(y_last_);
      const bool clamped = options_.clamp_nonnegative && negative;
      if (clamped) clamp_nonnegative(y_);
      ++accepted_;
      // k_6, evaluated at the new state, is the next step's k_0 — unless
      // the clip moved the state.
      stage0_ = clamped ? Stage0::kEvaluate : Stage0::kCopy;
    } else {
      ++rejected_;
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
  const double h = h_;
  const std::size_t n = n_;
  const double theta = (t - t_prev_) / h;
  const double theta1 = 1.0 - theta;
  const double* __restrict const y0 = y_last_.data();
  const double* __restrict const y1 = y_.data();
  const double* __restrict const k = k_.data();
  double* __restrict const y = out.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double dy = y1[i] - y0[i];
    const double b = h * k[i] - dy;
    const double c = dy - h * k[6 * n + i] - b;
    double d = 0.0;
    for (std::size_t s = 0; s < kStages; ++s) d += kD[s] * k[s * n + i];
    y[i] = y0[i] + theta * (dy + theta1 * (b + theta * (c + theta1 * h * d)));
  }
}

std::span<const double> Dopri5Stepper::fsal() const {
  if (stage0_ != Stage0::kCopy) return {};
  return {k_.data() + 6 * n_, n_};
}

void IntegrateSpan::close(const char* method, double t1, std::size_t accepted,
                          std::size_t rejected) {
  std::ostringstream args;
  args << "{\"method\": \"" << method << "\", \"t0\": " << t0_
       << ", \"t1\": " << t1 << ", \"accepted\": " << accepted
       << ", \"rejected\": " << rejected << "}";
  span_->set_args(args.str());
  span_.reset();
}

}  // namespace btmf::math
