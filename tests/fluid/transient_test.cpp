#include "btmf/fluid/transient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "btmf/fluid/cmfsd.h"
#include "btmf/fluid/correlation.h"
#include "btmf/fluid/demand.h"
#include "btmf/fluid/mtcd.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/util/error.h"

namespace btmf::fluid {
namespace {

TEST(TransientTest, SamplesUniformGridIncludingEndpoints) {
  const math::OdeSystem ode = single_torrent_system(kPaperParams, 1.0);
  TransientOptions options;
  options.t_end = 100.0;
  options.samples = 5;
  const TransientSeries series = sample_trajectory(ode, {0.0, 0.0}, options);
  ASSERT_EQ(series.times.size(), 5u);
  EXPECT_DOUBLE_EQ(series.times.front(), 0.0);
  EXPECT_DOUBLE_EQ(series.times.back(), 100.0);
  EXPECT_NEAR(series.times[1], 25.0, 1e-12);
  ASSERT_EQ(series.states.size(), 5u);
  EXPECT_DOUBLE_EQ(series.states[0][0], 0.0);
}

TEST(TransientTest, SingleTorrentConvergesToClosedForm) {
  const double lambda = 2.0;
  const math::OdeSystem ode = single_torrent_system(kPaperParams, lambda);
  TransientOptions options;
  options.t_end = 3000.0;
  options.samples = 60;
  const TransientSeries series = sample_trajectory(ode, {0.0, 0.0}, options);
  const SingleTorrentEquilibrium eq =
      single_torrent_equilibrium(kPaperParams, lambda);
  EXPECT_NEAR(series.states.back()[0], eq.downloaders, 0.01 * eq.downloaders);
  EXPECT_NEAR(series.states.back()[1], eq.seeds, 0.01 * eq.seeds);
}

TEST(TransientTest, SettlingTimeFindsFirstEntry) {
  const double lambda = 1.0;
  const math::OdeSystem ode = single_torrent_system(kPaperParams, lambda);
  TransientOptions options;
  options.t_end = 4000.0;
  options.samples = 400;
  const TransientSeries series = sample_trajectory(ode, {0.0, 0.0}, options);
  const SingleTorrentEquilibrium eq =
      single_torrent_equilibrium(kPaperParams, lambda);
  const std::vector<double> target{eq.downloaders, eq.seeds};
  const double settle = settling_time(series, target, 0.02);
  EXPECT_TRUE(std::isfinite(settle));
  EXPECT_GT(settle, 0.0);
  EXPECT_LT(settle, 4000.0);
  // A tighter tolerance cannot settle earlier.
  EXPECT_GE(settling_time(series, target, 0.005), settle);
}

TEST(TransientTest, SettlingTimeInfiniteWhenNeverReached) {
  const math::OdeSystem ode = single_torrent_system(kPaperParams, 1.0);
  TransientOptions options;
  options.t_end = 10.0;  // far too short
  options.samples = 10;
  const TransientSeries series = sample_trajectory(ode, {0.0, 0.0}, options);
  const std::vector<double> target{60.0, 20.0};
  EXPECT_TRUE(std::isinf(settling_time(series, target, 0.001)));
}

TEST(TransientTest, FlashCrowdPeakExceedsSteadyState) {
  // Drop a crowd of 500 class-1 peers into an empty CMFSD torrent with a
  // small trickle arrival: the downloader population peaks at the crowd
  // size and then drains well below it.
  const CorrelationModel corr(3, 0.5, 0.1);
  const CmfsdModel model(kPaperParams, corr.system_entry_rates(), 0.0);
  std::vector<double> y0(model.state_size(), 0.0);
  y0[model.x_index(1, 1)] = 500.0;

  TransientOptions options;
  options.t_end = 3000.0;
  options.samples = 120;
  const TransientSeries series =
      sample_trajectory(model.system(), y0, options);

  const auto total_downloaders = [&](std::span<const double> state) {
    double total = 0.0;
    for (unsigned i = 1; i <= 3; ++i)
      for (unsigned j = 1; j <= i; ++j) total += state[model.x_index(i, j)];
    return total;
  };
  const double peak = peak_value(series, total_downloaders);
  EXPECT_NEAR(peak, 500.0, 1.0);  // the crowd itself is the peak
  EXPECT_LT(total_downloaders(series.states.back()), 50.0);
}

TEST(TransientTest, PulseBreakpointsAreTheExactJumpsOfTheRate) {
  ArrivalProcess train;
  train.kind = ArrivalKind::kFlashCrowd;
  train.t0 = 3007.3;
  train.width = 0.7;
  train.boost = 20.0;
  train.interval = 10.1;
  train.pulses = 3;
  const std::vector<double> edges = train.breakpoints(0.0, 6000.0);
  ASSERT_EQ(edges.size(), 6u);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const double before = std::nextafter(edges[e], 0.0);
    // Pulse starts switch the boost on, pulse ends switch it off.
    EXPECT_EQ(train.rate_at(1.0, before), e % 2 == 0 ? 1.0 : 20.0) << e;
    EXPECT_EQ(train.rate_at(1.0, edges[e]), e % 2 == 0 ? 20.0 : 1.0) << e;
    const auto pulse = static_cast<double>(e / 2);
    EXPECT_NEAR(edges[e], 3007.3 + 10.1 * pulse + (e % 2 == 0 ? 0.0 : 0.7),
                1e-9);
  }
  // Only edges strictly inside the window; back-to-back pulses merge.
  EXPECT_EQ(train.breakpoints(3008.0, 3018.0).size(), 2u);
  train.interval = train.width;
  EXPECT_EQ(train.breakpoints(0.0, 6000.0).size(), 2u);
  EXPECT_TRUE(ArrivalProcess{}.breakpoints(0.0, 6000.0).empty());
  EXPECT_TRUE(parse_arrival("diurnal,0.5,400,0").breakpoints(0.0, 6000.0)
                  .empty());
}

TEST(TransientTest, SplitAtPulseEdgesSeesPulsesNarrowerThanTheStep) {
  // One 20x flash pulse mid-horizon. By t = 3000 the step has grown to
  // tens of time units, so a trajectory that is not split at the pulse
  // edges steps over a pulse of width 1 or 3 and misses its crowd (the
  // readout then lands ~1% off). The reference is split the same way and
  // caps every step at 0.05.
  const CorrelationModel corr(5, 0.9, 1.0);
  const CmfsdModel cmfsd(kPaperParams, corr.system_entry_rates(), 0.3);
  for (const double width : {1.0, 3.0, 10.0}) {
    ArrivalProcess pulse;
    pulse.kind = ArrivalKind::kFlashCrowd;
    pulse.t0 = 3007.3;
    pulse.width = width;
    pulse.boost = 20.0;
    const struct {
      const char* scheme;
      math::OdeSystem ode;
      std::size_t size;
    } systems[] = {
        {"MTSD",
         single_torrent_system(kPaperParams, corr.per_torrent_total_rate(),
                               pulse),
         2},
        {"MTCD",
         mtcd_system(kPaperParams, corr.per_torrent_entry_rates(), pulse), 10},
        {"CMFSD", cmfsd.system(pulse), cmfsd.state_size()},
    };
    for (const auto& system : systems) {
      TransientOptions options;
      options.t_end = 6000.0;
      options.ode.rtol = 1e-9;
      options.ode.atol = 1e-12;
      options.breakpoints = pulse.breakpoints(0.0, options.t_end);
      ASSERT_EQ(options.breakpoints.size(), 2u);
      TransientOptions reference = options;
      reference.ode.max_dt = 0.05;
      const std::vector<double> y0(system.size, 0.0);
      const TransientSeries split =
          sample_trajectory(system.ode, y0, options);
      const TransientSeries fine =
          sample_trajectory(system.ode, y0, reference);
      double worst = 0.0;
      for (std::size_t s = 0; s < split.states.size(); ++s) {
        for (std::size_t c = 0; c < system.size; ++c) {
          const double want = fine.states[s][c];
          worst = std::max(worst, std::abs(split.states[s][c] - want) /
                                      (1.0 + std::abs(want)));
        }
      }
      EXPECT_LT(worst, 2e-9) << system.scheme << " width " << width;
    }
  }
}

/// Counts the factorisations, i.e. the implicit steps attempted.
class CountingStages final : public math::StageSolver {
 public:
  CountingStages(std::unique_ptr<math::StageSolver> inner, std::size_t* count)
      : inner_(std::move(inner)), count_(count) {}
  void factor(double t, std::span<const double> y, double c) override {
    ++*count_;
    inner_->factor(t, y, c);
  }
  void solve(std::span<double> r) const override { inner_->solve(r); }

 private:
  std::unique_ptr<math::StageSolver> inner_;
  std::size_t* count_;
};

TEST(TransientTest, StiffTailGoesToTheImplicitStepperUnlessMaxDtHoldsIt) {
  // Once the trajectory relaxes, dopri5's step sits on its stability
  // bound (3.3 / gamma = 66) and the tail goes to RODAS3, which lands on
  // the steady state. A max_dt far below that bound keeps every step
  // stable, so dopri5 integrates throughout.
  const CorrelationModel corr(5, 0.5, 1.0);
  const CmfsdModel model(kPaperParams, corr.system_entry_rates(), 0.5);
  std::size_t factors = 0;
  math::OdeSystem ode = model.system();
  ode.stages = [inner = ode.stages, &factors] {
    return std::make_unique<CountingStages>(inner(), &factors);
  };
  TransientOptions options;
  options.t_end = 40000.0;
  options.ode.rtol = 1e-9;
  options.ode.atol = 1e-12;
  const std::vector<double> y0(model.state_size(), 0.0);
  const TransientSeries series = sample_trajectory(ode, y0, options);
  EXPECT_GT(factors, 0u);
  EXPECT_LT(factors, options.samples);
  const CmfsdEquilibrium eq = model.solve();
  for (std::size_t c = 0; c < eq.state.size(); ++c) {
    EXPECT_NEAR(series.states.back()[c], eq.state[c],
                1e-8 * (1.0 + eq.state[c]))
        << c;
  }

  factors = 0;
  options.ode.max_dt = 10.0;
  (void)sample_trajectory(ode, y0, options);
  EXPECT_EQ(factors, 0u);
}

/// A trajectory's cost and end: the right-hand-side calls and the
/// factorisations it made, and its last state.
struct TrajectoryCost {
  std::size_t rhs_calls = 0;
  std::size_t factors = 0;
  std::vector<double> end;
};

TrajectoryCost trajectory_cost(const math::OdeSystem& system,
                               std::size_t size,
                               const TransientOptions& options) {
  TrajectoryCost cost;
  math::OdeSystem counted = system;
  counted.rhs = [inner = system.rhs, &cost](double t,
                                            std::span<const double> y,
                                            std::span<double> d) {
    ++cost.rhs_calls;
    inner(t, y, d);
  };
  counted.stages = [inner = system.stages, &cost] {
    return std::make_unique<CountingStages>(inner(), &cost.factors);
  };
  cost.end = sample_trajectory(counted, std::vector<double>(size, 0.0),
                               options)
                 .states.back();
  return cost;
}

TEST(TransientTest, SampleCountChangesNoStep) {
  // Steps land only on breakpoints and the horizon, and every sample is
  // read from the step that passes it, so ten times the samples take
  // the same steps to the same end, bit for bit. RODAS3 steps across
  // the sample times too, up to 30 times dopri5's stable step, so each
  // tail takes a few dozen factorisations, not one per sample interval.
  const CorrelationModel corr(20, 0.5, 1.0);
  const CmfsdModel cmfsd(kPaperParams, corr.system_entry_rates(), 0.5);
  const struct {
    const char* scheme;
    math::OdeSystem ode;
    std::size_t size;
  } systems[] = {
      {"CMFSD", cmfsd.system(), cmfsd.state_size()},
      {"MTCD", mtcd_system(kPaperParams, corr.per_torrent_entry_rates()),
       40},
  };
  for (const auto& system : systems) {
    TransientOptions options;
    options.t_end = 40000.0;
    options.ode.rtol = 1e-9;
    options.ode.atol = 1e-12;
    const TrajectoryCost coarse =
        trajectory_cost(system.ode, system.size, options);
    options.samples = 2000;
    const TrajectoryCost fine =
        trajectory_cost(system.ode, system.size, options);
    EXPECT_GT(coarse.factors, 0u) << system.scheme;
    EXPECT_LE(coarse.factors, 40u) << system.scheme;
    EXPECT_EQ(fine.rhs_calls, coarse.rhs_calls) << system.scheme;
    EXPECT_EQ(fine.factors, coarse.factors) << system.scheme;
    EXPECT_EQ(fine.end, coarse.end) << system.scheme;
  }
}

TEST(TransientTest, PulseInTheStiffTailGoesBackToDopri5) {
  // A 20x pulse at t = 20000 hits a tail RODAS3 is integrating. Its first
  // step into the pulse fails, its proposal drops below the gain bound,
  // and dopri5 takes the pulse's fast transient (order 3 at rtol 1e-9
  // would need hundreds of steps there). The reference keeps max_dt = 30,
  // inside dopri5's stability bound, so it never leaves dopri5.
  const CorrelationModel corr(5, 0.5, 1.0);
  const CmfsdModel model(kPaperParams, corr.system_entry_rates(), 0.5);
  ArrivalProcess pulse;
  pulse.kind = ArrivalKind::kFlashCrowd;
  pulse.t0 = 20000.5;
  pulse.width = 30.0;
  pulse.boost = 20.0;
  std::size_t factors = 0;
  math::OdeSystem ode = model.system(pulse);
  ode.stages = [inner = ode.stages, &factors] {
    return std::make_unique<CountingStages>(inner(), &factors);
  };
  TransientOptions options;
  options.t_end = 40000.0;
  options.ode.rtol = 1e-9;
  options.ode.atol = 1e-12;
  options.breakpoints = pulse.breakpoints(0.0, options.t_end);
  const std::vector<double> y0(model.state_size(), 0.0);
  const TransientSeries series = sample_trajectory(ode, y0, options);
  EXPECT_GT(factors, 0u);
  EXPECT_LT(factors, 2 * options.samples);
  const std::size_t implicit_factors = factors;
  TransientOptions reference = options;
  reference.ode.max_dt = 30.0;
  const TransientSeries fine = sample_trajectory(ode, y0, reference);
  EXPECT_EQ(factors, implicit_factors);
  double worst = 0.0;
  for (std::size_t s = 0; s < series.states.size(); ++s) {
    for (std::size_t c = 0; c < model.state_size(); ++c) {
      const double want = fine.states[s][c];
      worst = std::max(worst, std::abs(series.states[s][c] - want) /
                                  (1.0 + std::abs(want)));
    }
  }
  EXPECT_LT(worst, 2e-9);
}

TEST(TransientTest, MapReducesEverySample) {
  const math::OdeSystem ode = single_torrent_system(kPaperParams, 1.0);
  TransientOptions options;
  options.t_end = 50.0;
  options.samples = 6;
  const TransientSeries series = sample_trajectory(ode, {1.0, 2.0}, options);
  const std::vector<double> sums = series.map(
      [](std::span<const double> s) { return s[0] + s[1]; });
  ASSERT_EQ(sums.size(), 6u);
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
}

TEST(TransientTest, InvalidOptionsThrow) {
  const math::OdeSystem ode = single_torrent_system(kPaperParams, 1.0);
  TransientOptions options;
  options.samples = 1;
  EXPECT_THROW((void)sample_trajectory(ode, {0.0, 0.0}, options), ConfigError);
  options.samples = 10;
  options.t_end = 0.0;
  EXPECT_THROW((void)sample_trajectory(ode, {0.0, 0.0}, options), ConfigError);
}

}  // namespace
}  // namespace btmf::fluid
