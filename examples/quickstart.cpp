// Quickstart: the one-call public API.
//
// Evaluates all four multiple-file downloading schemes at the paper's
// evaluation constants (K = 10 files, mu = 0.02, eta = 0.5, gamma = 0.05)
// for a chosen file correlation p, and prints the comparison the paper's
// Section 4 draws: sequential beats concurrent, and collaborative
// sequential (CMFSD, rho = 0) beats everything when files are correlated.
//
//   ./quickstart            # p = 0.9
//   ./quickstart --p 0.3    # any correlation in (0, 1]
//
// Pass --metrics-out / --trace-out / --sample-dt to also run a short
// CMFSD swarm simulation with the btmf::obs telemetry sinks attached
// (see docs/OBSERVABILITY.md).
#include <iostream>
#include <optional>

#include "btmf/model/backend.h"
#include "btmf/obs/sink.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/cli.h"
#include "btmf/util/error.h"
#include "btmf/util/table.h"

int main(int argc, char** argv) try {
  using namespace btmf;
  util::ArgParser parser("quickstart",
                         "compare all four downloading schemes at the "
                         "paper's constants");
  parser.add_option("p", "0.9", "file correlation in (0, 1]");
  parser.add_option("k", "10", "number of files K");
  parser.add_option("metrics-out", "",
                    "also simulate CMFSD and write metrics JSON here");
  parser.add_option("trace-out", "",
                    "also simulate CMFSD and write a Chrome trace here");
  parser.add_option("sample-dt", "0",
                    "time-series sampling cadence (0 = horizon / 512)");
  if (!parser.parse(argc, argv)) return 0;

  // Paper defaults: mu/eta/gamma, lambda0 = 1, and CMFSD at rho = 0, the
  // paper's recommended setting.
  model::ScenarioSpec scenario;
  scenario.num_files = parser.get_count("k");
  scenario.correlation = parser.get_double("p");
  scenario.validate();

  util::Table table({"scheme", "avg online time/file", "avg download/file",
                     "vs MTSD"});
  table.set_precision(4);

  const model::Backend& backend = model::require_backend("fluid-equilibrium");
  scenario.scheme = fluid::SchemeKind::kMtsd;
  const double mtsd_baseline =
      backend.evaluate_or_throw(scenario).avg_online_per_file;

  for (const fluid::SchemeKind scheme :
       {fluid::SchemeKind::kMtcd, fluid::SchemeKind::kMtsd,
        fluid::SchemeKind::kMfcd, fluid::SchemeKind::kCmfsd}) {
    scenario.scheme = scheme;
    const model::Outcome report = backend.evaluate_or_throw(scenario);
    table.add_row({std::string(fluid::to_string(scheme)),
                   report.avg_online_per_file, report.avg_download_per_file,
                   report.avg_online_per_file / mtsd_baseline});
  }

  std::cout << "Scenario: K = " << scenario.num_files
            << " interest-correlated files, correlation p = "
            << scenario.correlation << "\n(CMFSD uses rho = 0, the paper's "
            << "recommended collaborative setting)\n\n";
  table.write_pretty(std::cout);
  std::cout << "\nReading: under MTCD/MFCD a class-i user splits bandwidth "
               "i ways, so correlated demand\ninflates everyone's time; "
               "CMFSD turns finished downloaders into partial seeds and "
               "wins\nby a wide margin when p is high.\n";

  // Optional telemetry tour: a short CMFSD swarm run with obs sinks.
  const std::string metrics_out = parser.get("metrics-out");
  const std::string trace_out = parser.get("trace-out");
  if (!metrics_out.empty() || !trace_out.empty()) {
    if (!metrics_out.empty()) obs::require_writable_path(metrics_out);
    if (!trace_out.empty()) obs::require_writable_path(trace_out);
    obs::MetricsRegistry metrics;
    obs::TimeSeriesRecorder recorder;
    std::optional<obs::TraceWriter> trace;
    sim::SimConfig config;
    config.scheme = fluid::SchemeKind::kCmfsd;
    config.num_files = scenario.num_files;
    config.correlation = scenario.correlation;
    config.horizon = 1000.0;
    config.warmup = 250.0;
    config.obs.metrics = &metrics;
    config.obs.recorder = &recorder;
    if (!trace_out.empty()) {
      trace.emplace("quickstart");
      config.obs.trace = &*trace;
    }
    config.obs.sample_dt = parser.get_double("sample-dt");
    config.validate();
    const sim::SimResult r = sim::run_simulation(config);
    std::cout << "\nTelemetry demo: CMFSD simulation to t = "
              << config.horizon << " processed " << r.events_processed
              << " events.\n";
    if (!metrics_out.empty()) {
      const obs::MetricsSnapshot snapshot = metrics.snapshot();
      obs::write_combined_json(metrics_out, &snapshot, &recorder);
      std::cout << "metrics + series written to " << metrics_out << '\n';
    }
    if (trace.has_value()) {
      trace->write_file(trace_out);
      std::cout << "trace written to " << trace_out << '\n';
    }
  }
  return 0;
} catch (const btmf::Error& error) {
  std::cerr << "error: " << error.what() << '\n';
  return 1;
}
