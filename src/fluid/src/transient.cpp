#include "btmf/fluid/transient.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

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

namespace {

// Accepted dopri5 steps whose stiffness test must fire, with no piece in
// between whose steps all passed it, before the next piece goes to
// RODAS3. The test fires on a step that sits on the stability bound, and
// a trial that does not pay goes back to dopri5 at its first short
// proposal (kImplicitGain), so a few firings suffice. On the fluid-sweep
// grid (K = 20, horizon 40000) the step counts of whole trajectories
// moved little between 1 and 6. Hairer's DOPRI5 waits for 15, which
// there kept CMFSD and MTCD on dopri5 for about 1000 and 2000 more time
// units, and MTSD (whose test fires on about one step in two) on dopri5
// throughout.
constexpr std::size_t kStiffSteps = 3;

// RODAS3 keeps a trajectory while its proposed step is at least this many
// times dopri5's last stable step, and hands it back at the first shorter
// proposal, even inside a piece, so a pulse's fast transient goes to
// dopri5. A RODAS3 step costs three evaluations of f, one factorisation
// and four O(n) stage solves against dopri5's six evaluations; the margin
// covers rejected steps and slow modes that keep the order-3 step short.
constexpr double kImplicitGain = 2.0;

}  // namespace

TransientSeries sample_trajectory(const math::OdeSystem& system,
                                  std::vector<double> y0,
                                  const TransientOptions& options) {
  BTMF_CHECK_MSG(options.t_end > 0.0, "t_end must be positive");
  BTMF_CHECK_MSG(options.samples >= 2, "need at least two samples");
  BTMF_CHECK_MSG(!y0.empty(), "empty initial state");
  BTMF_CHECK_MSG(system.rhs && system.stages,
                 "the system needs f and its stage solves");
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
  bool implicit = false;
  std::size_t stiff_steps = 0;  // fired dopri5 steps since the last calm one
  double stable_dt = 0.0;       // dopri5's last step on its stability bound
  double implicit_dt = 0.0;     // RODAS3's carried proposal
  std::unique_ptr<math::StageSolver> stages;  // made at the first switch
  const auto advance = [&](double t1, bool jump_at_end) {
    std::optional<math::OdeSystem> clamped;
    if (jump_at_end) {
      clamped = system;
      clamped->rhs = [&rhs = system.rhs, inside = std::nextafter(t1, t)](
                         double s, std::span<const double> state,
                         std::span<double> dstate) {
        rhs(std::min(s, inside), state, dstate);
      };
    }
    const math::OdeSystem& piece = clamped ? *clamped : system;
    if (implicit) {
      // RODAS3 stops where its proposal falls below the gain bound, and
      // dopri5 takes the rest of the piece.
      math::AdaptiveOptions implicit_ode = ode;
      implicit_ode.initial_dt = implicit_dt;
      if (!stages) stages = system.stages();
      math::AdaptiveResult step =
          math::integrate_rosenbrock(piece, *stages, std::move(y), t, t1,
                                     implicit_ode, kImplicitGain * stable_dt);
      y = std::move(step.y);
      t = step.t;
      implicit_dt = step.next_dt;
      if (implicit_dt < kImplicitGain * stable_dt) {
        implicit = false;
        stiff_steps = 0;
        ode.initial_dt = stable_dt;
      }
    }
    if (!implicit && t < t1) {
      math::AdaptiveResult step =
          math::integrate_dopri5(piece.rhs, std::move(y), t, t1, ode);
      y = std::move(step.y);
      ode.initial_dt = step.next_dt;
      if (step.stiff_steps > 0) {
        stiff_steps += step.stiff_steps;
        stable_dt = step.stiff_dt;
      } else if (step.accepted_steps > 0) {
        stiff_steps = 0;
      }
      if (stiff_steps >= kStiffSteps) {
        implicit = true;
        implicit_dt = kImplicitGain * stable_dt;
      }
    }
    t = t1;
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
