// The two stochastic backends.
//
//  * kernel-sim — one replication of the policy-driven discrete-event
//    kernel (the only backend that honours Adapt, cheaters, abort clocks
//    and fault plans). Per-class metrics are the post-warm-up sample
//    means; system averages are the run's own arrival-weighted averages.
//  * chunk-sim — the chunk-level protocol substrate (docs/PROTOCOL.md).
//    At K = 1 it is a single torrent fed at the scenario's torrent
//    arrival rate lambda0 * p; at K > 1 it runs the spec's scheme on
//    true multi-file torrents (per-file piece bitmaps, the configured
//    piece-selection policy, per-arrival wanted sets) fed at the user
//    entry rate lambda0 * (1 - (1-p)^K). Either way it measures the
//    sharing efficiency eta as it emerges instead of assuming it.
#include <cmath>
#include <limits>
#include <utility>

#include "backends.h"
#include "btmf/sim/simulator.h"

namespace btmf::model {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Outcome outcome_for(const ScenarioSpec& spec) {
  Outcome outcome;
  outcome.scheme = spec.scheme;
  outcome.correlation = spec.correlation;
  outcome.rho =
      spec.scheme == fluid::SchemeKind::kCmfsd ? spec.rho : kNaN;
  outcome.class_entry_rates = spec.correlation_model().system_entry_rates();
  return outcome;
}

class KernelSimBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "kernel-sim";
  }

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.monte_carlo = true;
    caps.trajectory = true;
    caps.sim_counters = true;
    caps.adapt = true;
    caps.cheaters = true;
    caps.aborts = true;
    caps.faults = true;
    caps.arrivals_time_varying = true;  // thinned non-homogeneous arrivals
    caps.bandwidth_classes = true;      // per-(torrent, class) service lanes
    return caps;
  }

  [[nodiscard]] std::optional<std::string> unsupported_reason(
      const ScenarioSpec& spec) const override {
    if (auto reason = Backend::unsupported_reason(spec)) return reason;
    // The CMFSD kernel policy schedules its collaborative stages on a
    // homogeneous rate pool; it has no per-class service lanes yet.
    if (spec.scheme == fluid::SchemeKind::kCmfsd &&
        !spec.bandwidth_classes.empty()) {
      return "kernel-sim does not model bandwidth classes under CMFSD";
    }
    return std::nullopt;
  }

 protected:
  [[nodiscard]] Outcome do_evaluate(const ScenarioSpec& spec) const override {
    Outcome outcome = outcome_for(spec);
    sim::SimResult result = sim::run_simulation(sim_config_from_spec(spec));

    const unsigned k = spec.num_files;
    std::vector<double> online(k, kNaN), download(k, kNaN);
    for (unsigned i = 1; i <= k && i <= result.classes.size(); ++i) {
      const sim::PerClassResult& cls = result.classes[i - 1];
      if (cls.completed_users == 0) continue;  // class never sampled
      online[i - 1] = cls.mean_online_per_file * i;
      download[i - 1] = cls.mean_download_per_file * i;
    }
    outcome.per_class =
        fluid::make_per_class_metrics(std::move(online), std::move(download));

    // The run's own arrival-weighted averages (the paper's estimator),
    // not a re-weighting with the model rates.
    outcome.avg_online_per_file = result.avg_online_per_file;
    outcome.avg_download_per_file = result.avg_download_per_file;
    outcome.avg_online_per_user = result.avg_online_per_user;

    Trajectory trajectory;
    trajectory.time = result.population_time;
    const std::size_t samples = result.population_time.size();
    trajectory.downloaders.assign(samples, 0.0);
    trajectory.seeds.assign(samples, 0.0);
    for (const std::vector<double>& series : result.downloaders_trajectory) {
      for (std::size_t s = 0; s < samples && s < series.size(); ++s) {
        trajectory.downloaders[s] += series[s];
      }
    }
    for (const std::vector<double>& series : result.seeds_trajectory) {
      for (std::size_t s = 0; s < samples && s < series.size(); ++s) {
        trajectory.seeds[s] += series[s];
      }
    }
    outcome.trajectory = std::move(trajectory);
    outcome.sim = std::move(result);
    return outcome;
  }
};

class ChunkSimBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "chunk-sim";
  }

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.monte_carlo = true;
    caps.max_files = 32;  // piece-bitmap width (file masks are uint32)
    caps.piece_policies = true;
    caps.arrivals_time_varying = true;  // per-slot lambda(t) thinning
    caps.bandwidth_classes = true;      // upload turns / receive tokens
    return caps;
  }

 protected:
  [[nodiscard]] Outcome do_evaluate(const ScenarioSpec& spec) const override {
    Outcome outcome = outcome_for(spec);

    sim::ChunkSimConfig config;
    config.num_chunks = spec.num_chunks;
    config.fluid = spec.fluid;
    config.horizon = spec.horizon;
    config.warmup = spec.warmup;
    config.seed = spec.seed;
    config.policy = spec.chunk_policy;
    config.suppression_prob = spec.chunk_suppression;
    config.arrival = spec.arrival;
    config.bandwidth_classes = spec.bandwidth_classes;

    if (spec.num_files == 1) {
      // A K = 1 scenario is a single torrent visited at rate lambda0 * p
      // under every scheme. This arm reproduces the pre-multi-file
      // backend bit for bit; ChunkSimTest's K = 1 bit-identity case
      // pins the engine underneath it.
      config.entry_rate = spec.visit_rate * spec.correlation;
      const sim::ChunkSimResult result = sim::run_chunk_sim(config);

      // Seeds linger Exp(gamma) after completing, exactly as in the
      // fluid setup, so online time is the measured download + 1/gamma.
      const double download = result.mean_download_time;
      const double online = download + 1.0 / spec.fluid.gamma;
      outcome.per_class = fluid::make_per_class_metrics({online}, {download});
      outcome.avg_online_per_file = online;
      outcome.avg_download_per_file = download;
      outcome.avg_online_per_user = online;
      outcome.chunk = result;
      return outcome;
    }

    // K > 1: run the spec's scheme on the multi-file substrate. The
    // engine draws each arrival's wanted set from the correlation model
    // conditioned on wanting at least one file, so it is fed the rate of
    // users who enter at all.
    config.num_files = spec.num_files;
    config.correlation = spec.correlation;
    config.entry_rate =
        spec.visit_rate *
        (1.0 - std::pow(1.0 - spec.correlation, spec.num_files));
    config.scheme = spec.scheme;
    config.rho = spec.scheme == fluid::SchemeKind::kCmfsd ? spec.rho : 0.0;
    const sim::ChunkSimResult result = sim::run_chunk_sim(config);

    const unsigned k = spec.num_files;
    std::vector<double> online(k, kNaN), download(k, kNaN);
    for (unsigned i = 1; i <= k && i <= result.classes.size(); ++i) {
      const sim::ChunkClassResult& cls = result.classes[i - 1];
      if (cls.completed_users == 0) continue;  // class never sampled
      online[i - 1] = cls.mean_online_time;
      download[i - 1] = cls.mean_download_time;
    }
    outcome.per_class =
        fluid::make_per_class_metrics(std::move(online), std::move(download));
    outcome.avg_online_per_file = result.avg_online_per_file;
    outcome.avg_download_per_file = result.avg_download_per_file;
    outcome.avg_online_per_user = result.mean_online_time;
    outcome.chunk = result;
    return outcome;
  }
};

}  // namespace

namespace detail {

const Backend& kernel_sim_backend() {
  static const KernelSimBackend backend;
  return backend;
}

const Backend& chunk_sim_backend() {
  static const ChunkSimBackend backend;
  return backend;
}

}  // namespace detail

}  // namespace btmf::model
