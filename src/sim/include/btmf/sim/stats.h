// Statistics collected by the simulator.
//
// Two independent views of the same run:
//  * sample statistics over users/peers that completed after warm-up
//    (online time, download time, per file);
//  * time-averaged populations per class, turned into sojourn times via
//    Little's law — the quantity the fluid ODEs actually predict.
// Agreement between the two is itself a consistency check (tests assert
// it), and each is compared against the fluid equilibrium in the
// sim-vs-fluid bench.
#pragma once

#include <cstddef>
#include <vector>

#include "btmf/math/stats.h"
#include "btmf/obs/timeseries.h"
#include "btmf/util/check.h"

namespace btmf::sim {

/// Per-class results (index 0 = class 1 = users who requested one file).
struct PerClassResult {
  std::size_t completed_users = 0;   ///< users whose whole visit was sampled
  double arrival_rate = 0.0;         ///< measured post-warm-up arrival rate

  double mean_online_per_file = 0.0;     ///< sample mean of T_user / i
  double ci_online_per_file = 0.0;       ///< 95% CI half-width
  double mean_download_per_file = 0.0;   ///< sample mean of D_user / i
  double ci_download_per_file = 0.0;

  double avg_downloaders = 0.0;      ///< time-averaged population
  double avg_seeds = 0.0;
  double little_download_time = 0.0; ///< avg_downloaders / arrival_rate
  double little_online_time = 0.0;   ///< (downloaders+seeds)/arrival_rate

  double mean_final_rho = 0.0;       ///< Adapt: mean rho at departure
};

struct SimResult {
  std::vector<PerClassResult> classes;

  double avg_online_per_file = 0.0;    ///< paper's headline metric
  double avg_download_per_file = 0.0;
  double avg_online_per_user = 0.0;

  double measured_time = 0.0;        ///< horizon - warmup
  std::size_t total_users = 0;       ///< users sampled (all classes)
  std::size_t total_arrivals = 0;    ///< incl. warm-up and censored users
  std::size_t censored_users = 0;    ///< still active at the horizon
  std::size_t aborted_users = 0;     ///< left before completing (theta > 0)

  // Per-run observability counters (perfbench reports them as
  // sim.kernel.*). Everything except wall_clock_seconds is deterministic
  // for a fixed seed.
  std::size_t events_processed = 0;  ///< kernel dispatch rounds
  std::size_t rate_epochs = 0;       ///< group-rate invalidations
  std::size_t peak_live_peers = 0;   ///< max concurrent peer units
  double wall_clock_seconds = 0.0;   ///< run() wall time (not deterministic)

  // Fault-injection & recovery observability (all zero without a
  // FaultPlan; see docs/FAULTS.md and bench/churn_sweep.cpp).
  std::size_t faults_injected = 0;     ///< fault edges dispatched
  std::size_t downloads_killed = 0;    ///< users crashed by churn bursts
  std::size_t arrivals_dropped = 0;    ///< tracker outage, drop mode
  std::size_t arrivals_queued = 0;     ///< tracker outage, queue mode
  std::size_t readmissions = 0;        ///< users re-admitted after a fault
  std::size_t readmission_queue_peak = 0;  ///< max pending re-admissions
  /// Longest time any fault needed to restore the live peer population to
  /// its pre-fault level (0 when no fault reduced the population).
  double time_to_recover = 0.0;
  /// Faults whose population dent had not healed by the horizon.
  std::size_t faults_unrecovered = 0;

  /// Mean rho across obedient adaptive peers, sampled at Adapt ticks
  /// (time series; empty unless Adapt is enabled). A thin view of the
  /// collector's "adapt.rho_mean" recorder series.
  std::vector<double> rho_trajectory_time;
  std::vector<double> rho_trajectory_mean;

  /// Per-class population trajectories sampled every SimConfig::obs
  /// .sample_dt (0 = horizon / 512) on the kernel's internal recorder —
  /// always recorded, sink or no sink. population_time is shared by all
  /// classes; downloaders/seeds_trajectory[k] is class k+1. The final
  /// sample sits at the horizon, so the series spans the full run.
  std::vector<double> population_time;
  std::vector<std::vector<double>> downloaders_trajectory;
  std::vector<std::vector<double>> seeds_trajectory;
};

/// Accumulators the engines feed during a run; finalise() builds SimResult.
class StatsCollector {
 public:
  explicit StatsCollector(unsigned num_classes);

  /// Piecewise-constant population integration over [t, t+dt). Runs once
  /// per kernel event, so it is an inline loop over flat weighted sums;
  /// every class shares one elapsed-time sum (the same dts in the same
  /// order a per-class math::TimeAverage would add).
  void observe_populations(const std::vector<double>& downloaders_per_class,
                           const std::vector<double>& seeds_per_class,
                           double dt) {
    BTMF_ASSERT(downloaders_per_class.size() == num_classes_);
    BTMF_ASSERT(seeds_per_class.size() == num_classes_);
    if (dt <= 0.0) return;
    for (unsigned k = 0; k < num_classes_; ++k) {
      down_weighted_[k] += downloaders_per_class[k] * dt;
      seed_weighted_[k] += seeds_per_class[k] * dt;
    }
    population_time_ += dt;
  }

  void record_arrival(unsigned user_class);

  /// A user (or virtual peer set) completed its whole visit: `online` is
  /// depart - arrival, `download` the summed per-file download durations.
  void record_user(unsigned user_class, unsigned files_requested,
                   double online, double download, double final_rho,
                   bool adaptive);

  void record_censored() { ++censored_; }
  void record_aborted() { ++aborted_; }
  void record_event() { ++events_; }

  /// Bulk accumulators for the sharded driver, which folds per-shard
  /// outputs into one collector instead of replaying individual events.
  void add_arrivals(unsigned user_class, std::size_t n);
  void add_events(std::size_t n) { events_ += n; }
  void record_rho_sample(double t, double mean_rho);

  [[nodiscard]] SimResult finalize(double measured_time,
                                   std::size_t total_arrivals) const;

 private:
  unsigned num_classes_;
  std::vector<double> down_weighted_;  ///< sum of downloaders * dt per class
  std::vector<double> seed_weighted_;  ///< sum of seeds * dt per class
  double population_time_ = 0.0;       ///< sum of the observed dts
  std::vector<math::RunningStats> online_per_file_;
  std::vector<math::RunningStats> download_per_file_;
  std::vector<math::RunningStats> final_rho_;
  std::vector<std::size_t> arrivals_;
  double online_sum_ = 0.0;
  double download_sum_ = 0.0;
  double files_sum_ = 0.0;
  std::size_t users_ = 0;
  std::size_t censored_ = 0;
  std::size_t aborted_ = 0;
  std::size_t events_ = 0;
  /// Backs record_rho_sample; finalize() copies the "adapt.rho_mean"
  /// series into SimResult::rho_trajectory_time/mean.
  obs::TimeSeriesRecorder rho_recorder_;
  obs::SeriesId rho_series_;
};

}  // namespace btmf::sim
