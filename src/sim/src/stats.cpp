#include "btmf/sim/stats.h"

#include "btmf/util/check.h"

namespace btmf::sim {

StatsCollector::StatsCollector(unsigned num_classes)
    : num_classes_(num_classes),
      down_weighted_(num_classes, 0.0),
      seed_weighted_(num_classes, 0.0),
      online_per_file_(num_classes),
      download_per_file_(num_classes),
      final_rho_(num_classes),
      arrivals_(num_classes, 0),
      rho_series_(rho_recorder_.series("adapt.rho_mean")) {
  BTMF_CHECK_MSG(num_classes >= 1, "StatsCollector needs >= 1 class");
}

void StatsCollector::record_arrival(unsigned user_class) {
  BTMF_ASSERT(user_class >= 1 && user_class <= num_classes_);
  ++arrivals_[user_class - 1];
}

void StatsCollector::record_user(unsigned user_class, unsigned files_requested,
                                 double online, double download,
                                 double final_rho, bool adaptive) {
  BTMF_ASSERT(user_class >= 1 && user_class <= num_classes_);
  const double files = static_cast<double>(files_requested);
  online_per_file_[user_class - 1].add(online / files);
  download_per_file_[user_class - 1].add(download / files);
  if (adaptive) final_rho_[user_class - 1].add(final_rho);
  online_sum_ += online;
  download_sum_ += download;
  files_sum_ += files;
  ++users_;
}

void StatsCollector::add_arrivals(unsigned user_class, std::size_t n) {
  BTMF_ASSERT(user_class >= 1 && user_class <= num_classes_);
  arrivals_[user_class - 1] += n;
}

void StatsCollector::record_rho_sample(double t, double mean_rho) {
  rho_recorder_.append(rho_series_, t, mean_rho);
}

SimResult StatsCollector::finalize(double measured_time,
                                   std::size_t total_arrivals) const {
  SimResult result;
  result.classes.resize(num_classes_);
  for (unsigned k = 0; k < num_classes_; ++k) {
    PerClassResult& c = result.classes[k];
    c.completed_users = online_per_file_[k].count();
    c.arrival_rate = measured_time > 0.0
                         ? static_cast<double>(arrivals_[k]) / measured_time
                         : 0.0;
    c.mean_online_per_file = online_per_file_[k].mean();
    c.ci_online_per_file = online_per_file_[k].ci_halfwidth();
    c.mean_download_per_file = download_per_file_[k].mean();
    c.ci_download_per_file = download_per_file_[k].ci_halfwidth();
    // Same quotient math::TimeAverage::average forms.
    if (population_time_ > 0.0) {
      c.avg_downloaders = down_weighted_[k] / population_time_;
      c.avg_seeds = seed_weighted_[k] / population_time_;
    }
    if (c.arrival_rate > 0.0) {
      c.little_download_time = c.avg_downloaders / c.arrival_rate;
      c.little_online_time =
          (c.avg_downloaders + c.avg_seeds) / c.arrival_rate;
    }
    c.mean_final_rho = final_rho_[k].mean();
  }
  result.avg_online_per_file =
      files_sum_ > 0.0 ? online_sum_ / files_sum_ : 0.0;
  result.avg_download_per_file =
      files_sum_ > 0.0 ? download_sum_ / files_sum_ : 0.0;
  result.avg_online_per_user =
      users_ > 0 ? online_sum_ / static_cast<double>(users_) : 0.0;
  result.measured_time = measured_time;
  result.total_users = users_;
  result.total_arrivals = total_arrivals;
  result.censored_users = censored_;
  result.aborted_users = aborted_;
  result.events_processed = events_;
  const obs::SeriesData rho = rho_recorder_.data(rho_series_);
  result.rho_trajectory_time = rho.t;
  result.rho_trajectory_mean = rho.v;
  return result;
}

}  // namespace btmf::sim
