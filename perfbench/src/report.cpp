#include "report.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <thread>

namespace perfbench {

namespace {

// Shortest exact decimal of a finite double ("%.17g"); JSON has no NaN.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics{
      {"serve.hit_rtt_ms_p50", "ms"},
      {"serve.miss_overhead_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.cache_hit_ratio", "share"},
      {"serve.evals_per_miss", "ratio"},
      {"serve.refused", "count"},
      {"sweep.self_ms_per_point", "ms"},
      {"sweep.store_us_p50", "us"},
      {"sweep.lookup_us_p50", "us"},
      {"sweep.open_ms", "ms"},
      {"parallel.busy_share", "share"},
      {"robust.overhead_us", "us"},
      {"robust.attempts_per_eval", "ratio"},
      {"model.wire_us", "us"},
      {"model.fingerprint_us", "us"},
      {"model.eval_ms.fluid-equilibrium", "ms"},
      {"model.eval_ms.fluid-transient", "ms"},
      {"model.eval_ms.kernel-sim", "ms"},
      {"model.eval_ms.chunk-sim", "ms"},
      {"model.eval_ms.stochastic-epidemic", "ms"},
      {"model.epidemic.ms_per_replication", "ms"},
      {"math.ode_steps_per_eval", "count"},
      {"math.ode_rejected_share", "share"},
      {"math.equilibrium_rungs_per_eval", "count"},
      {"sim.kernel.events_per_eval", "count"},
      {"sim.kernel.events_per_s", "1/s"},
      {"sim.kernel.rate_epochs_per_event", "ratio"},
      {"sim.kernel.peak_live_peers", "count"},
      {"sim.kernel.barrier_wait_share", "share"},
      {"sim.kernel.shard_imbalance", "ratio"},
      {"sim.chunk.peak_downloaders", "count"},
      {"sim.chunk.idle_fraction", "share"},
      {"obs.trace_overhead_share", "share"},
  };
  return metrics;
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e2e) {
  return {{"evals_per_s", e2e.evals_per_s, "1/s"},
          {"latency_p50_ms", e2e.latency_p50_ms, "ms"},
          {"latency_p99_ms", e2e.latency_p99_ms, "ms"},
          {"setup_s", e2e.setup_s, "s"},
          {"peak_rss_mb", e2e.peak_rss_mb, "MB"}};
}

void report(std::ostream& out, const RunOptions& options,
            const RunResult& result) {
  const std::size_t failed = result.failed + result.checks.failed();
  const bool correct = result.checks.failed() == 0;

  out << "workload " << options.workload << "  seed " << options.seed
      << "  seconds " << options.seconds << "  trace "
      << (options.trace ? 1 : 0) << "\n";
  std::string compiler = PERFBENCH_COMPILER;
  for (char& c : compiler) {
    if (c == ' ') c = '-';
  }
  out << "env compiler=" << compiler
      << " build_type=" << PERFBENCH_BUILD_TYPE
      << " hardware_threads=" << std::thread::hardware_concurrency() << "\n";
  for (const std::string& why : result.checks.failures()) {
    out << "CHECK FAILED: " << why << "\n";
  }
  out << "checks " << (correct ? "passed" : "FAILED") << "  attempted "
      << result.attempted << "  failed " << failed << "  error_rate "
      << number(result.attempted > 0
                    ? static_cast<double>(failed) /
                          static_cast<double>(result.attempted)
                    : 0.0)
      << "\n";
  for (const Metric& m : result.detail) {
    out << "  " << m.name << " = " << number(m.value) << " " << m.unit
        << "\n";
  }
  // A traced run prints its own end-to-end numbers too, so the tracing
  // overhead against untraced runs shows; they are not its result.
  const char* e2e_label = options.trace ? "traced end-to-end" : "end-to-end";
  for (const Metric& m : end_to_end_metrics(result.e2e)) {
    out << e2e_label << " " << m.name << " = " << number(m.value) << " "
        << m.unit << "\n";
  }

  std::string metrics;
  auto add = [&metrics](const std::string& name, double value,
                        const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + quoted(unit) + "}";
  };
  if (options.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = result.layers.find(name);
      const double value = it == result.layers.end() ? 0.0 : it->second;
      out << "layer " << name << " = " << number(value) << " " << unit
          << (it == result.layers.end() ? "  (layer not on this path)" : "")
          << "\n";
      add(name, value, unit);
    }
  } else {
    for (const Metric& m : end_to_end_metrics(result.e2e)) {
      add(m.name, m.value, m.unit);
    }
  }
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << (result.attempted > 0 ? result.attempted : 1)
      << ", \"failed\": " << failed << ", \"metrics\": {" << metrics
      << "}}\n";
  out.flush();
}

}  // namespace perfbench
