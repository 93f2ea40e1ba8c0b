#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double share(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

double covered_length(std::vector<Interval> intervals, Interval window) {
  for (auto& [begin, end] : intervals) {
    begin = std::max(begin, window.first);
    end = std::min(end, window.second);
  }
  std::erase_if(intervals, [](const Interval& i) {
    return i.second <= i.first;
  });
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = window.first;
  for (const auto& [begin, end] : intervals) {
    const double from = std::max(begin, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return covered;
}

double self_time(Interval span, const std::vector<Interval>& children) {
  return (span.second - span.first) - covered_length(children, span);
}

double sweep_self_per_point(double wall, std::size_t workers, double busy_sum,
                            std::size_t points) {
  if (points == 0) return 0.0;
  return (wall * static_cast<double>(workers) - busy_sum) /
         static_cast<double>(points);
}

double busy_share(double busy_sum, std::size_t workers, double wall) {
  return share(busy_sum, static_cast<double>(workers) * wall);
}

double imbalance(const std::vector<double>& per_shard) {
  const double avg = mean(per_shard);
  if (avg == 0.0) return 0.0;
  return *std::max_element(per_shard.begin(), per_shard.end()) / avg;
}

}  // namespace perfbench
