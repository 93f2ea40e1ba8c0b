#include "btmf/fluid/transient.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "btmf/math/vec.h"
#include "btmf/util/check.h"

namespace btmf::fluid {

std::vector<double> TransientSeries::map(
    const std::function<double(std::span<const double>)>& reduce) const {
  std::vector<double> out;
  out.reserve(states.size());
  for (const std::vector<double>& state : states) {
    out.push_back(reduce(state));
  }
  return out;
}

TransientSeries sample_trajectory(const math::OdeRhs& rhs,
                                  std::vector<double> y0,
                                  const TransientOptions& options) {
  BTMF_CHECK_MSG(options.t_end > 0.0, "t_end must be positive");
  BTMF_CHECK_MSG(options.samples >= 2, "need at least two samples");
  BTMF_CHECK_MSG(!y0.empty(), "empty initial state");
  BTMF_CHECK_MSG(std::is_sorted(options.breakpoints.begin(),
                                options.breakpoints.end()),
                 "breakpoints must be ascending");

  TransientSeries series;
  series.times.reserve(options.samples);
  series.states.reserve(options.samples);
  series.times.push_back(0.0);
  series.states.push_back(y0);

  math::AdaptiveOptions ode = options.ode;
  ode.clamp_nonnegative = true;

  // Integrates [t, t1] and carries the controller's next step onwards.
  // A piece ending at a jump sees the right-hand side's limit from the
  // left there, which is what a stage landing on t1 must use.
  std::vector<double> y = std::move(y0);
  double t = 0.0;
  const auto advance = [&](double t1, bool jump_at_end) {
    math::AdaptiveResult step;
    if (jump_at_end) {
      const double inside = std::nextafter(t1, t);
      step = math::integrate_dopri5(
          [&rhs, inside](double s, std::span<const double> state,
                         std::span<double> dstate) {
            rhs(std::min(s, inside), state, dstate);
          },
          std::move(y), t, t1, ode);
    } else {
      step = math::integrate_dopri5(rhs, std::move(y), t, t1, ode);
    }
    y = std::move(step.y);
    t = t1;
    ode.initial_dt = step.next_dt;
  };

  const double dt =
      options.t_end / static_cast<double>(options.samples - 1);
  auto jump = std::upper_bound(options.breakpoints.begin(),
                               options.breakpoints.end(), 0.0);
  for (std::size_t s = 1; s < options.samples; ++s) {
    const double t1 = dt * static_cast<double>(s);
    for (; jump != options.breakpoints.end() && *jump < t1; ++jump) {
      if (*jump > t) advance(*jump, true);
    }
    advance(t1, jump != options.breakpoints.end() && *jump == t1);
    series.times.push_back(t1);
    series.states.push_back(y);
  }
  return series;
}

double settling_time(const TransientSeries& series,
                     std::span<const double> target, double tol) {
  BTMF_CHECK_MSG(!series.states.empty(), "empty trajectory");
  BTMF_CHECK_MSG(series.states.front().size() == target.size(),
                 "target size mismatch");
  const double scale = 1.0 + math::norm_inf(target);
  for (std::size_t s = 0; s < series.states.size(); ++s) {
    double deviation = 0.0;
    for (std::size_t i = 0; i < target.size(); ++i) {
      deviation =
          std::max(deviation, std::abs(series.states[s][i] - target[i]));
    }
    if (deviation <= tol * scale) return series.times[s];
  }
  return std::numeric_limits<double>::infinity();
}

double peak_value(const TransientSeries& series,
                  const std::function<double(std::span<const double>)>&
                      reduce) {
  BTMF_CHECK_MSG(!series.states.empty(), "empty trajectory");
  double peak = -std::numeric_limits<double>::infinity();
  for (const std::vector<double>& state : series.states) {
    peak = std::max(peak, reduce(state));
  }
  return peak;
}

}  // namespace btmf::fluid
