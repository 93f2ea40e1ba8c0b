// The stochastic-epidemic backend.
//
// Kesidis et al. (arXiv 0811.1003) model a BitTorrent swarm as a
// stochastic epidemic: integer downloader/seed populations evolving as a
// continuous-time Markov chain whose transition rates are exactly the
// flux terms of the fluid ODEs, so the fluid model is the CTMC's
// large-population (deterministic) limit. This backend simulates that
// CTMC directly with Gillespie's algorithm, one representative torrent
// per scheme, and reads the post-warmup time averages out with Little's
// law — the conformance matrix pins its mean against fluid-equilibrium
// and kernel-sim on homogeneous scenarios, and against kernel-sim on
// time-varying ones (where no equilibrium backend applies).
//
// Non-homogeneous arrivals are sampled by thinning: the arrival channels
// enter the Gillespie rate sum at their peak rate and an accepted event
// is kept with probability lambda(t)/lambda_peak, which is exact for any
// bounded rate function (Lewis & Shedler 1979).
//
// Population states are small integers (the paper's scenarios put a few
// dozen peers in a torrent), so single sample paths are noisy; the
// outcome is the mean over spec.epidemic_replications independent
// replications with seeds derived via parallel::derive_seed. They run on
// idle cores (parallel::fan_out), each into its own row, and the rows
// are summed in replication order, so the outcome is bit-identical at
// any thread count.
//
// CMFSD is declared unsupported: the source paper gives no CTMC
// counterpart for its stage-structured collaborative allocator, and
// inventing one here would produce numbers no reference validates.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "backends.h"
#include "btmf/fluid/metrics.h"
#include "btmf/parallel/fan_out.h"
#include "btmf/parallel/seeds.h"
#include "btmf/sim/rng.h"
#include "btmf/util/check.h"
#include "btmf/util/error.h"

namespace btmf::model {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The most peers one replication may hold at once: kernel-sim's runaway
/// guard (sim::SimConfig::max_active_peers' default). An offered load far
/// beyond the service capacity would otherwise simulate without end.
constexpr std::size_t kMaxPeers = 1'000'000;

/// Throws SolverError once a replication holds more than kMaxPeers
/// peers; called as an arrival adds one. Draws nothing.
void check_peers(double peers) {
  if (peers > static_cast<double>(kMaxPeers)) {
    throw SolverError("stochastic-epidemic: a replication passed " +
                      std::to_string(kMaxPeers) +
                      " peers — the configuration is outside the stable "
                      "region (offered load exceeds service capacity)");
  }
}

/// Length of [from, to] inside the measurement window [warmup, horizon];
/// zero when they do not overlap.
double time_in_window(const ScenarioSpec& spec, double from, double to) {
  const double lo = std::max(from, spec.warmup);
  const double hi = std::min(to, spec.horizon);
  return hi > lo ? hi - lo : 0.0;
}

/// Per-class constants of the multi-torrent CTMC, shared read-only by
/// every worker.
struct ClassConstants {
  ClassConstants(const ScenarioSpec& spec, const std::vector<double>& rates)
      : peak(rates.size()),
        mu_per_file(rates.size()),
        eta_mu_per_file(rates.size()) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const double files = static_cast<double>(i + 1);
      peak[i] = spec.arrival.peak_rate(rates[i]);
      mu_per_file[i] = spec.fluid.mu / files;
      eta_mu_per_file[i] = spec.fluid.eta * spec.fluid.mu / files;
    }
  }

  std::vector<double> peak;             ///< thinning envelope of arrivals
  std::vector<double> mu_per_file;      ///< mu / i
  std::vector<double> eta_mu_per_file;  ///< eta mu / i
};

/// Per-worker scratch in one caller-allocated arena. Helper threads never
/// allocate (glibc would give each one a malloc arena of its own, and
/// peak RSS grows with them). Each worker's block starts on a page of its
/// own: blocks that were merely cache-line aligned and adjacent made every
/// worker ~60% slower on a 4-vCPU Xeon, and hardware prefetchers do not
/// cross a page boundary.
class WorkerArena {
 public:
  WorkerArena(std::size_t workers, std::size_t doubles_per_worker)
      : stride_((doubles_per_worker + kPage - 1) / kPage * kPage),
        storage_(workers * stride_ + kPage - 1) {
    const std::size_t misaligned =
        reinterpret_cast<std::uintptr_t>(storage_.data()) %
        (kPage * sizeof(double)) / sizeof(double);
    offset_ = misaligned == 0 ? 0 : kPage - misaligned;
  }

  [[nodiscard]] std::span<double> block(std::size_t worker) {
    return {storage_.data() + offset_ + worker * stride_, stride_};
  }

 private:
  static constexpr std::size_t kPage = 4096 / sizeof(double);
  std::size_t stride_;
  std::vector<double> storage_;
  std::size_t offset_ = 0;
};

/// Per-worker arrays of the concurrent path, each one double per class.
constexpr std::size_t kConcurrentArrays = 8;

/// One Gillespie sample path of the multi-torrent CTMC (MTCD and MFCD
/// share it, exactly as they share one fluid ODE): per-class integer
/// downloaders x_i and seeds y_i of one representative torrent, with the
/// mtcd_rhs flux terms as transition rates. Writes the per-class
/// downloader populations time-averaged over [warmup, horizon] to
/// `averages`.
///
/// Each class's rate terms x/i, eta mu/i x, mu/i y and gamma y are
/// memoised in `block` and refreshed only when an event moves that
/// class; the per-event sums still run over every class in class order,
/// so each total rounds exactly as a full recomputation would.
void run_concurrent_path(const ScenarioSpec& spec,
                         const std::vector<double>& rates,
                         const ClassConstants& classes,
                         std::span<double> block, sim::RandomStream& rng,
                         std::span<double> averages) {
  const std::size_t k = rates.size();
  const double gamma = spec.fluid.gamma;
  const auto array = [&](std::size_t n) { return block.subspan(n * k, k); };
  // Populations are small integers, held exactly in doubles.
  const std::span<double> x = array(0);
  const std::span<double> y = array(1);
  const std::span<double> share_weight = array(2);  // x / i
  const std::span<double> tft = array(3);           // eta mu / i * x
  const std::span<double> seed_service = array(4);  // mu / i * y
  const std::span<double> departure = array(5);     // gamma * y
  const std::span<double> completion = array(6);
  const std::span<double> held = array(7);  // integral of x over the window
  const auto refresh_downloaders = [&](std::size_t i) {
    share_weight[i] = x[i] / static_cast<double>(i + 1);
    tft[i] = classes.eta_mu_per_file[i] * x[i];
  };
  const auto refresh_seeds = [&](std::size_t i) {
    seed_service[i] = classes.mu_per_file[i] * y[i];
    departure[i] = gamma * y[i];
  };
  for (std::size_t i = 0; i < k; ++i) {
    x[i] = 0.0;
    y[i] = 0.0;
    held[i] = 0.0;
    refresh_downloaders(i);
    refresh_seeds(i);
  }

  double peers = 0.0;  // sum of x and y
  double t = 0.0;
  while (t < spec.horizon) {
    // Channel rates at the current state. Arrival channels use the peak
    // rate (thinned on acceptance); completion channels are the fluid
    // flux eta mu/i x_i + share_i * sum_l (mu/l) y_l at integer x, y.
    double seed_total = 0.0;
    double share_denominator = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      seed_total += seed_service[i];
      share_denominator += share_weight[i];
    }
    for (std::size_t i = 0; i < k; ++i) {
      const double share = share_denominator > 0.0
                               ? share_weight[i] / share_denominator
                               : 0.0;
      completion[i] = tft[i] + share * seed_total;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      total += classes.peak[i] + completion[i] + departure[i];
    }
    BTMF_CHECK_MSG(total > 0.0,
                   "stochastic-epidemic: all transition rates vanished");

    const double dt = rng.exponential(total);
    const double in_window = time_in_window(spec, t, t + dt);
    if (in_window > 0.0) {
      for (std::size_t i = 0; i < k; ++i) held[i] += x[i] * in_window;
    }
    t += dt;
    if (t >= spec.horizon) break;

    double pick = rng.uniform() * total;
    for (std::size_t i = 0; i < k; ++i) {
      const double peak = classes.peak[i];
      if (pick < peak) {
        // Thinning: accept the arrival with probability lambda(t)/peak.
        if (spec.arrival.homogeneous() ||
            rng.uniform() * peak <= spec.arrival.rate_at(rates[i], t)) {
          check_peers(++peers);
          x[i] += 1.0;
          refresh_downloaders(i);
        }
        break;
      }
      pick -= peak;
      if (pick < completion[i]) {
        x[i] -= 1.0;
        y[i] += 1.0;
        refresh_downloaders(i);
        refresh_seeds(i);
        break;
      }
      pick -= completion[i];
      if (pick < departure[i]) {
        peers -= 1.0;
        y[i] -= 1.0;
        refresh_seeds(i);
        break;
      }
      pick -= departure[i];
      // Falling past the last channel can only happen through floating-
      // point rounding of the partial sums; treat it as a no-op step.
    }
  }
  const double window = spec.horizon - spec.warmup;
  for (std::size_t i = 0; i < k; ++i) averages[i] = held[i] / window;
}

/// One Gillespie sample path of the single-torrent (Qiu-Srikant) CTMC
/// that underlies MTSD: arrivals at the sequential per-torrent rate,
/// completions at mu (eta x + y) while downloaders exist, departures at
/// gamma y. Returns the downloader population time-averaged over
/// [warmup, horizon].
double run_sequential_path(const ScenarioSpec& spec, double rate,
                           sim::RandomStream& rng) {
  const double mu = spec.fluid.mu;
  const double eta = spec.fluid.eta;
  const double gamma = spec.fluid.gamma;
  long long x = 0;
  long long y = 0;
  double held = 0.0;
  const double peak = spec.arrival.peak_rate(rate);

  double t = 0.0;
  while (t < spec.horizon) {
    const double completion =
        x > 0 ? mu * (eta * static_cast<double>(x) + static_cast<double>(y))
              : 0.0;
    const double departure = gamma * static_cast<double>(y);
    const double total = peak + completion + departure;

    const double dt = rng.exponential(total);
    const double in_window = time_in_window(spec, t, t + dt);
    if (in_window > 0.0) held += static_cast<double>(x) * in_window;
    t += dt;
    if (t >= spec.horizon) break;

    const double pick = rng.uniform() * total;
    if (pick < peak) {
      if (spec.arrival.homogeneous() ||
          rng.uniform() * peak <= spec.arrival.rate_at(rate, t)) {
        ++x;
        check_peers(static_cast<double>(x + y));
      }
    } else if (pick < peak + completion) {
      --x;
      ++y;
    } else if (y > 0) {
      --y;
    }
  }
  return held / (spec.horizon - spec.warmup);
}

class StochasticEpidemicBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "stochastic-epidemic";
  }

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.monte_carlo = true;
    caps.arrivals_time_varying = true;  // exact thinning against the peak
    // No CTMC counterpart of the CMFSD stage allocator exists in the
    // source paper (arXiv 0811.1003 covers the single-swarm epidemic and
    // its multi-torrent products), so CMFSD is a typed refusal.
    caps.schemes[static_cast<std::size_t>(fluid::SchemeKind::kCmfsd)] = false;
    return caps;
  }

 protected:
  [[nodiscard]] Outcome do_evaluate(const ScenarioSpec& spec) const override {
    Outcome outcome;
    outcome.scheme = spec.scheme;
    outcome.correlation = spec.correlation;
    outcome.rho = kNaN;
    const fluid::CorrelationModel corr = spec.correlation_model();
    outcome.class_entry_rates = corr.system_entry_rates();

    const unsigned k = spec.num_files;
    const bool sequential = spec.scheme == fluid::SchemeKind::kMtsd;
    const std::vector<double> rates = corr.per_torrent_entry_rates();
    const double total_rate = corr.per_torrent_total_rate();

    // Mean of the per-class time-averaged downloader populations across
    // replications; Little's law is applied to the mean (the estimators
    // share one denominator, so averaging populations first is the
    // lower-variance order). Replication r writes row r, on whichever
    // worker runs it, into buffers allocated here.
    const std::size_t classes = sequential ? 1 : k;
    const std::size_t replications = spec.epidemic_replications;
    std::vector<double> rows(replications * classes);
    if (sequential) {
      parallel::fan_out(replications, [&](std::size_t r, std::size_t) {
        sim::RandomStream rng(parallel::derive_seed(spec.seed, r));
        rows[r] = run_sequential_path(spec, total_rate, rng);
      });
    } else {
      const ClassConstants constants(spec, rates);
      WorkerArena arena(parallel::fan_out_width(replications),
                        kConcurrentArrays * k);
      parallel::fan_out(replications, [&](std::size_t r, std::size_t worker) {
        sim::RandomStream rng(parallel::derive_seed(spec.seed, r));
        run_concurrent_path(spec, rates, constants, arena.block(worker), rng,
                            std::span(rows).subspan(r * k, k));
      });
    }
    std::vector<double> mean_downloaders(classes, 0.0);
    for (std::size_t r = 0; r < replications; ++r) {
      for (std::size_t i = 0; i < classes; ++i) {
        mean_downloaders[i] += rows[r * classes + i];
      }
    }
    for (double& v : mean_downloaders) {
      v /= static_cast<double>(replications);
    }

    // A class with no downloader anywhere in [warmup, horizon], in any
    // replication, was never sampled: its time is unknown, not zero.
    // kernel-sim and chunk-sim mark such classes NaN too, and
    // fluid::weighted_ratio leaves them out of the averages.
    std::vector<double> online(k, kNaN), download(k, kNaN);
    if (sequential) {
      // Every torrent is identical; one torrent's Little's law gives the
      // per-file time, multiplied out per class like the fluid readout.
      if (mean_downloaders[0] > 0.0) {
        const double mean_rate =
            spec.arrival.mean_rate(total_rate, spec.warmup, spec.horizon);
        const double t_file = mean_downloaders[0] / mean_rate;
        for (unsigned i = 1; i <= k; ++i) {
          download[i - 1] = i * t_file;
          online[i - 1] = i * (t_file + 1.0 / spec.fluid.gamma);
        }
      }
    } else {
      for (unsigned i = 1; i <= k; ++i) {
        if (rates[i - 1] > 0.0 && mean_downloaders[i - 1] > 0.0) {
          const double mean_rate = spec.arrival.mean_rate(
              rates[i - 1], spec.warmup, spec.horizon);
          download[i - 1] = mean_downloaders[i - 1] / mean_rate;
          online[i - 1] = download[i - 1] + 1.0 / spec.fluid.gamma;
        }
      }
    }
    outcome.per_class =
        fluid::make_per_class_metrics(std::move(online), std::move(download));
    outcome.avg_online_per_file = fluid::average_online_time_per_file(
        outcome.per_class, outcome.class_entry_rates);
    outcome.avg_download_per_file = fluid::average_download_time_per_file(
        outcome.per_class, outcome.class_entry_rates);
    outcome.avg_online_per_user = fluid::average_online_time_per_user(
        outcome.per_class, outcome.class_entry_rates);
    return outcome;
  }
};

}  // namespace

namespace detail {

const Backend& stochastic_epidemic_backend() {
  static const StochasticEpidemicBackend backend;
  return backend;
}

}  // namespace detail

}  // namespace btmf::model
