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

// Accepted dopri5 steps whose stiffness test must fire, with no run of
// kCalmSteps steps that all passed it in between, before the trajectory
// goes to RODAS3. The test fires on a step that sits on the stability
// bound, and a trial that does not pay goes back to dopri5 at its first
// short proposal (kImplicitGain), so a few firings suffice. Hairer's
// DOPRI5 waits for 15. On the seed-1 fluid-sweep grid (K = 20, horizon
// 40000) that moves the first handoff later by about 3300 time units for
// CMFSD's lumped system (from t = 6100 on average), 800 for MTCD and
// MFCD (from t = 18000) and 3100 for MTSD (from t = 2400).
constexpr std::size_t kStiffSteps = 3;
constexpr std::size_t kCalmSteps = 3;

// RODAS3 keeps a trajectory while its proposed step is at least this many
// times dopri5's last stable step, and hands it back at the first shorter
// proposal, so a pulse's fast transient goes to dopri5. A RODAS3 step
// costs three evaluations of f, one factorisation and four O(n) stage
// solves against dopri5's six evaluations; the margin covers rejected
// steps and slow modes that keep the order-3 step short.
constexpr double kImplicitGain = 2.0;

// No RODAS3 step is longer than this many times dopri5's last stable
// step. Uncapped, the tail's steps grow to thousands of time units while
// the order-2 error estimate still passes them, and MTCD's per-class
// online times at K = 20, p = 0.15 moved by 6.2e-9 from a dopri5
// reference at rtol 1e-12, against the golden tests' 1e-9. Capped at 15,
// 30 and 60 times, the worst of MTCD's five p values moved by 2.0e-11,
// 9.8e-11 and 3.1e-10, at 45, 34 and 29 factorisations for p = 0.15. The
// stable step is about 3.3 / gamma for the fluid models, so the cap
// follows their slowest relaxation; like every other step it does not
// depend on the sample grid.
constexpr double kImplicitCap = 30.0;

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

  const double t_end = options.t_end;
  const std::size_t samples = options.samples;
  TransientSeries series;
  const double grid = t_end / static_cast<double>(samples - 1);
  series.times.resize(samples);
  for (std::size_t s = 0; s + 1 < samples; ++s) {
    series.times[s] = grid * static_cast<double>(s);
  }
  series.times.back() = t_end;
  series.states.assign(samples, std::vector<double>(y0.size()));
  series.states.front() = std::move(y0);

  math::AdaptiveOptions ode = options.ode;
  ode.clamp_nonnegative = true;

  // Steps land on every breakpoint, and a step landing on one sees the
  // right-hand side's limit from the left there: stages evaluate f at
  // min(t, inside), inside being the last double below the piece's end.
  double inside = std::numeric_limits<double>::infinity();
  math::OdeSystem piecewise;
  if (!options.breakpoints.empty()) {
    piecewise = system;
    piecewise.rhs = [&rhs = system.rhs, &inside](
                        double t, std::span<const double> state,
                        std::span<double> dstate) {
      rhs(std::min(t, inside), state, dstate);
    };
  }
  const math::OdeSystem& f =
      options.breakpoints.empty() ? system : piecewise;

  const double max_dt = ode.max_dt > 0.0
                            ? ode.max_dt
                            : std::numeric_limits<double>::infinity();
  const double min_dt = t_end * 1e-14;
  math::Dopri5Stepper explicit_steps(f.rhs, ode);
  explicit_steps.start(0.0, series.states.front(), t_end / 100.0, max_dt);
  std::unique_ptr<math::StageSolver> stages;  // made at the first switch
  std::optional<math::RosenbrockStepper> implicit_steps;
  bool implicit = false;
  std::size_t fired = 0;      // fired dopri5 steps since the last calm run
  std::size_t calm = 0;       // dopri5 steps in a row that passed the test
  double stable_dt = 0.0;     // dopri5's last step on its stability bound
  math::IntegrateSpan run(ode.trace);
  run.begin(explicit_steps);

  // Fills every sample up to the last step's end from its extension,
  // clipped like the steps' own states.
  std::size_t next = 1;
  const auto fill = [&](const auto& stepper) {
    for (; next < samples && series.times[next] <= stepper.t(); ++next) {
      stepper.dense(series.times[next], series.states[next]);
      math::clamp_nonnegative(series.states[next]);
    }
  };

  auto jump = std::upper_bound(options.breakpoints.begin(),
                               options.breakpoints.end(), 0.0);
  for (;;) {
    const bool at_jump =
        jump != options.breakpoints.end() && *jump < t_end;
    const double t1 = at_jump ? *jump : t_end;
    inside = at_jump ? std::nextafter(t1, 0.0)
                     : std::numeric_limits<double>::infinity();
    while ((implicit ? implicit_steps->t() : explicit_steps.t()) < t1) {
      if (implicit) {
        // RODAS3 hands back to dopri5 at its first short proposal, from
        // its last accepted step.
        const double stop_below = kImplicitGain * stable_dt;
        if (implicit_steps->step(t1, min_dt, stop_below)) {
          fill(*implicit_steps);
        }
        if (implicit_steps->next_dt() < stop_below) {
          run.end("rodas3", *implicit_steps);
          explicit_steps.start(implicit_steps->t(), implicit_steps->y(),
                               stable_dt, max_dt);
          implicit = false;
          fired = 0;
          calm = 0;
          run.begin(explicit_steps);
        }
        continue;
      }
      explicit_steps.step(t1, min_dt);
      fill(explicit_steps);
      if (explicit_steps.stiff()) {
        ++fired;
        calm = 0;
        stable_dt = explicit_steps.h();
      } else if (++calm >= kCalmSteps) {
        fired = 0;
      }
      if (fired >= kStiffSteps) {
        run.end("dopri5", explicit_steps);
        if (!stages) {
          stages = system.stages();
          implicit_steps.emplace(f, *stages, ode);
        }
        implicit_steps->start(explicit_steps.t(), explicit_steps.y(),
                              kImplicitGain * stable_dt,
                              std::min(max_dt, kImplicitCap * stable_dt));
        implicit = true;
        run.begin(*implicit_steps);
      }
    }
    if (!at_jump) break;
    ++jump;
    if (implicit) {
      implicit_steps->refresh();
    } else {
      explicit_steps.refresh();
    }
  }
  if (implicit) {
    run.end("rodas3", *implicit_steps);
  } else {
    run.end("dopri5", explicit_steps);
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
