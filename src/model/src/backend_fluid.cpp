// The two fluid backends.
//
//  * fluid-equilibrium — the paper's steady states: the closed forms
//    where they exist, CMFSD's pool-rate root otherwise.
//  * fluid-transient — the same ODE systems integrated from an empty
//    torrent to the spec's horizon and read out with Little's law at the
//    endpoint, with the sampled population trajectory attached. Converges
//    to fluid-equilibrium as horizon -> inf (the conformance matrix pins
//    the agreement at the default horizon).
#include <cmath>
#include <limits>
#include <span>

#include "backends.h"
#include "btmf/fluid/cmfsd.h"
#include "btmf/fluid/mfcd.h"
#include "btmf/fluid/mtcd.h"
#include "btmf/fluid/mtsd.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/fluid/transient.h"

namespace btmf::model {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// MTCD/MFCD per-class metrics with a given per-file factor A.
fluid::PerClassMetrics concurrent_metrics(double per_file_factor,
                                          double gamma, unsigned num_classes,
                                          std::span<const double> rates) {
  std::vector<double> online(num_classes), download(num_classes);
  for (unsigned i = 1; i <= num_classes; ++i) {
    if (rates.empty() || rates[i - 1] > 0.0) {
      download[i - 1] = static_cast<double>(i) * per_file_factor;
      online[i - 1] = download[i - 1] + 1.0 / gamma;
    } else {
      download[i - 1] = kNaN;
      online[i - 1] = kNaN;
    }
  }
  return fluid::make_per_class_metrics(std::move(online),
                                       std::move(download));
}

/// Shared Outcome scaffolding: identity fields and the entry-rate weights.
Outcome outcome_for(const ScenarioSpec& spec) {
  Outcome outcome;
  outcome.scheme = spec.scheme;
  outcome.correlation = spec.correlation;
  outcome.rho =
      spec.scheme == fluid::SchemeKind::kCmfsd ? spec.rho : kNaN;
  outcome.class_entry_rates = spec.correlation_model().system_entry_rates();
  return outcome;
}

/// Fills the weighted system averages from the per-class metrics.
void finish_averages(Outcome& outcome) {
  if (outcome.correlation == 0.0) {
    // No peer requests anything; the averages are the class-1 limits.
    outcome.avg_online_per_file = outcome.per_class.online_per_file.empty()
                                      ? kNaN
                                      : outcome.per_class.online_per_file[0];
    outcome.avg_download_per_file =
        outcome.per_class.download_per_file.empty()
            ? kNaN
            : outcome.per_class.download_per_file[0];
    outcome.avg_online_per_user = outcome.avg_online_per_file;
    return;
  }
  outcome.avg_online_per_file = fluid::average_online_time_per_file(
      outcome.per_class, outcome.class_entry_rates);
  outcome.avg_download_per_file = fluid::average_download_time_per_file(
      outcome.per_class, outcome.class_entry_rates);
  outcome.avg_online_per_user = fluid::average_online_time_per_user(
      outcome.per_class, outcome.class_entry_rates);
}

fluid::CmfsdModel cmfsd_model(const ScenarioSpec& spec,
                              std::vector<double> rates) {
  return spec.rho_per_class.empty()
             ? fluid::CmfsdModel(spec.fluid, std::move(rates), spec.rho)
             : fluid::CmfsdModel(spec.fluid, std::move(rates),
                                 spec.rho_per_class);
}

/// The state the Little's-law readout is evaluated at. An autonomous
/// system is read at the trajectory endpoint (it has converged to the
/// steady state); under a time-varying arrival process there is no steady
/// state, so the readout averages the uniformly sampled states across the
/// post-warmup window instead — paired with the window-mean arrival rate
/// below, that is Little's law over the observation window.
std::vector<double> readout_state(const fluid::TransientSeries& series,
                                  const ScenarioSpec& spec) {
  if (spec.arrival.homogeneous()) return series.states.back();
  std::vector<double> mean(series.states.back().size(), 0.0);
  std::size_t count = 0;
  for (std::size_t s = 0; s < series.times.size(); ++s) {
    if (series.times[s] < spec.warmup) continue;
    for (std::size_t c = 0; c < mean.size(); ++c) {
      mean[c] += series.states[s][c];
    }
    ++count;
  }
  for (double& v : mean) v /= static_cast<double>(count);
  return mean;
}

/// Mean arrival-rate modulation over the readout window (exactly 1 for a
/// homogeneous process, keeping that path's arithmetic bit-identical).
double readout_modulation(const ScenarioSpec& spec) {
  return spec.arrival.homogeneous()
             ? 1.0
             : spec.arrival.mean_rate(1.0, spec.warmup, spec.horizon);
}

// ---------------------------------------------------------------------------

class FluidEquilibriumBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "fluid-equilibrium";
  }

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.zero_correlation = true;  // closed forms take the p -> 0 limit
    caps.rho_per_class = true;
    return caps;
  }

 protected:
  [[nodiscard]] Outcome do_evaluate(const ScenarioSpec& spec) const override {
    Outcome outcome = outcome_for(spec);
    const unsigned k = spec.num_files;
    switch (spec.scheme) {
      case fluid::SchemeKind::kMtcd:
      case fluid::SchemeKind::kMfcd: {
        if (spec.correlation == 0.0) {
          // p -> 0 limit: (1 - (1-p)^K)/(K p) -> 1, so A -> T. All classes
          // are limits of conditional metrics, so fill every class.
          const double t_single =
              fluid::single_torrent_download_time(spec.fluid);
          outcome.per_class = concurrent_metrics(
              t_single, spec.fluid.gamma, k, std::span<const double>{});
        } else {
          const double per_file_factor = fluid::mfcd_download_time_per_file(
              spec.fluid, spec.correlation_model());
          outcome.per_class =
              concurrent_metrics(per_file_factor, spec.fluid.gamma, k,
                                 outcome.class_entry_rates);
        }
        break;
      }
      case fluid::SchemeKind::kMtsd: {
        outcome.per_class = fluid::mtsd_metrics(spec.fluid, k).metrics;
        break;
      }
      case fluid::SchemeKind::kCmfsd: {
        outcome.per_class =
            cmfsd_model(spec, outcome.class_entry_rates).solve().metrics;
        break;
      }
    }
    finish_averages(outcome);
    return outcome;
  }
};

// ---------------------------------------------------------------------------

class FluidTransientBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "fluid-transient";
  }

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.trajectory = true;
    caps.rho_per_class = true;
    caps.arrivals_time_varying = true;  // the ODEs integrate lambda(t)
    return caps;
  }

 protected:
  [[nodiscard]] Outcome do_evaluate(const ScenarioSpec& spec) const override {
    Outcome outcome = outcome_for(spec);
    const fluid::CorrelationModel corr = spec.correlation_model();

    fluid::TransientOptions options;
    options.t_end = spec.horizon;
    options.samples = spec.transient_samples;
    options.ode.rtol = spec.solver.rtol;
    options.ode.atol = spec.solver.atol;
    options.ode.max_steps = spec.solver.max_steps;
    options.ode.trace = spec.solver.trace;
    options.breakpoints = spec.arrival.breakpoints(0.0, spec.horizon);

    switch (spec.scheme) {
      case fluid::SchemeKind::kMtcd:
      case fluid::SchemeKind::kMfcd: {
        // One representative torrent (MFCD: subtorrent — the paper's
        // Sec. 3.4 equivalence makes the two schemes share one ODE, so
        // their transient outcomes are bit-identical by construction).
        const std::vector<double> rates = corr.per_torrent_entry_rates();
        const unsigned k = spec.num_files;
        const fluid::TransientSeries series = fluid::sample_trajectory(
            fluid::mtcd_system(spec.fluid, rates, spec.arrival),
            std::vector<double>(2 * k, 0.0), options);
        const std::vector<double> end = readout_state(series, spec);
        const double mod = readout_modulation(spec);
        std::vector<double> online(k), download(k);
        for (unsigned i = 1; i <= k; ++i) {
          if (rates[i - 1] > 0.0) {
            // Little's law per torrent: a class-i downloader's sojourn
            // x_i / lambda_i is its whole concurrent phase i * A.
            download[i - 1] = end[i - 1] / (rates[i - 1] * mod);
            online[i - 1] = download[i - 1] + 1.0 / spec.fluid.gamma;
          } else {
            download[i - 1] = kNaN;
            online[i - 1] = kNaN;
          }
        }
        outcome.per_class = fluid::make_per_class_metrics(
            std::move(online), std::move(download));
        attach_trajectory(outcome, series, k);
        break;
      }
      case fluid::SchemeKind::kMtsd: {
        // Every torrent is an identical Qiu-Srikant system fed by the
        // sequential visits of all classes: arrival rate lambda0 * p.
        const double rate = corr.per_torrent_total_rate();
        const fluid::TransientSeries series = fluid::sample_trajectory(
            fluid::single_torrent_system(spec.fluid, rate, spec.arrival),
            {0.0, 0.0}, options);
        const double t_file =
            readout_state(series, spec)[0] / (rate * readout_modulation(spec));
        const unsigned k = spec.num_files;
        std::vector<double> online(k), download(k);
        for (unsigned i = 1; i <= k; ++i) {
          download[i - 1] = i * t_file;
          online[i - 1] = i * (t_file + 1.0 / spec.fluid.gamma);
        }
        outcome.per_class = fluid::make_per_class_metrics(
            std::move(online), std::move(download));
        attach_trajectory(outcome, series, 1);
        break;
      }
      case fluid::SchemeKind::kCmfsd: {
        // The lumped system (fluid/cmfsd.h): one stage profile per rho
        // chain instead of one population per (class, stage).
        const fluid::CmfsdModel model =
            cmfsd_model(spec, outcome.class_entry_rates);
        const fluid::TransientSeries series = fluid::sample_trajectory(
            model.system(spec.arrival),
            std::vector<double>(model.lumped_size(), 0.0), options);
        const double mod = readout_modulation(spec);
        std::vector<double> download =
            model.lumped_download_times(readout_state(series, spec));
        std::vector<double> online(download.size());
        for (std::size_t i = 0; i < download.size(); ++i) {
          download[i] /= mod;
          online[i] = download[i] + 1.0 / spec.fluid.gamma;
        }
        outcome.per_class = fluid::make_per_class_metrics(
            std::move(online), std::move(download));
        Trajectory trajectory;
        trajectory.time = series.times;
        trajectory.downloaders = series.map([&](std::span<const double> y) {
          return model.lumped_downloaders(y);
        });
        trajectory.seeds = series.map([&](std::span<const double> y) {
          return model.lumped_seeds(y);
        });
        outcome.trajectory = std::move(trajectory);
        break;
      }
    }
    finish_averages(outcome);
    return outcome;
  }

 private:
  /// For the {x^1..x^K, y^1..y^K} state layouts: totals per sample.
  static void attach_trajectory(Outcome& outcome,
                                const fluid::TransientSeries& series,
                                unsigned num_classes) {
    Trajectory trajectory;
    trajectory.time = series.times;
    trajectory.downloaders = series.map([=](std::span<const double> y) {
      double total = 0.0;
      for (unsigned i = 0; i < num_classes; ++i) total += y[i];
      return total;
    });
    trajectory.seeds = series.map([=](std::span<const double> y) {
      double total = 0.0;
      for (unsigned i = 0; i < num_classes; ++i) total += y[num_classes + i];
      return total;
    });
    outcome.trajectory = std::move(trajectory);
  }
};

}  // namespace

namespace detail {

const Backend& fluid_equilibrium_backend() {
  static const FluidEquilibriumBackend backend;
  return backend;
}

const Backend& fluid_transient_backend() {
  static const FluidTransientBackend backend;
  return backend;
}

}  // namespace detail

}  // namespace btmf::model
