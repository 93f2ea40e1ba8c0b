// Printing a run: human-readable lines first, then the one JSON line
// (last line of stdout) that BENCHMARK.json's command contract reads.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Every per-layer metric (name, unit), in BENCHMARK.json order. A
/// traced run prints all of them; a layer the workload never calls
/// reports 0 (it did no work there).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// The end-to-end metrics of `e2e` as (name, value, unit).
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const EndToEnd& e2e);

/// Writes the detail lines and the final JSON line for `result`.
void report(std::ostream& out, const RunOptions& options,
            const RunResult& result);

}  // namespace perfbench
