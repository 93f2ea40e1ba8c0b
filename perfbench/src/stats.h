// The arithmetic every perfbench metric goes through: percentiles, the
// self time of a traced span, and shares. Kept free of any btmf type so
// perfbench_tests can pin it down on hand-computed inputs.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between closest ranks (numpy's default, R type 7). Sorts a copy.
/// Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(const std::vector<double>& values);

/// `part / whole`, or 0 when `whole` is 0 — a share of nothing is none.
[[nodiscard]] double share(double part, double whole);

/// A half-open time interval [first, second).
using Interval = std::pair<double, double>;

/// Length of the union of `intervals` clipped to `window`: the part of
/// the window that at least one interval covers. Overlapping children
/// (spans of parallel workers) count once.
[[nodiscard]] double covered_length(std::vector<Interval> intervals,
                                    Interval window);

/// A span's self time: its duration minus the part its children cover.
[[nodiscard]] double self_time(Interval span,
                               const std::vector<Interval>& children);

/// Engine time per point of a parallel sweep that no point function
/// accounts for: (wall x workers - sum of point busy time) / points.
[[nodiscard]] double sweep_self_per_point(double wall, std::size_t workers,
                                          double busy_sum,
                                          std::size_t points);

/// Busy time over available worker time: busy_sum / (workers x wall).
[[nodiscard]] double busy_share(double busy_sum, std::size_t workers,
                                double wall);

/// max / mean of per-shard work; 1 is perfectly balanced, 0 for no work.
[[nodiscard]] double imbalance(const std::vector<double>& per_shard);

}  // namespace perfbench
