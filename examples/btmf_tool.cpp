// btmf_tool — command-line front end for the whole library.
//
//   btmf_tool evaluate --scheme cmfsd --p 0.9 --rho 0.1   fluid steady state
//   btmf_tool simulate --scheme mtsd --p 0.5              agent-level swarm
//   btmf_tool sweep --scheme cmfsd --rho 0.0              online time vs p
//   btmf_tool adapt --cheaters 0.5                        Adapt fixed point
//   btmf_tool reproduce [--figure fig2]                   paper-vs-measured
//
// evaluate, simulate and sweep all run through the btmf::model backend
// layer: one ScenarioSpec built from the shared CLI options, dispatched
// to any registered backend via --backend (see --list-backends and
// docs/BACKENDS.md). Every subcommand accepts --help.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "btmf/fluid/adapt_fluid.h"
#include "btmf/model/backend.h"
#include "btmf/obs/sink.h"
#include "btmf/robust/escalate.h"
#include "btmf/robust/failure.h"
#include "btmf/robust/isolate.h"
#include "btmf/robust/supervisor.h"
#include "btmf/serve/client.h"
#include "btmf/serve/daemon.h"
#include "btmf/serve/protocol.h"
#include "btmf/sim/faults.h"
#include "btmf/sim/simulator.h"
#include "btmf/sweep/cache.h"
#include "btmf/sweep/reproduce.h"
#include "btmf/sweep/sweep.h"
#include "btmf/util/cli.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"
#include "btmf/util/table.h"
#include "btmf/util/version.h"

namespace {

using namespace btmf;

void require(bool ok, const std::string& msg) {
  if (!ok) throw ConfigError(msg);
}

/// The shared spec options of evaluate / simulate / sweep. `backend_default`
/// is the subcommand's natural evaluator; any registered backend works.
void add_spec_options(util::ArgParser& parser,
                      const std::string& backend_default) {
  parser.add_option("k", "10", "number of files K");
  parser.add_option("p", "0.9", "file correlation in [0, 1]");
  parser.add_option("lambda0", "1.0", "indexing-server visit rate");
  parser.add_option("mu", "0.02", "peer upload bandwidth");
  parser.add_option("eta", "0.5", "downloader sharing efficiency");
  parser.add_option("gamma", "0.05", "seed departure rate");
  parser.add_option("scheme", "cmfsd", "mtcd|mtsd|mfcd|cmfsd");
  parser.add_option("rho", "0.0", "CMFSD bandwidth split");
  parser.add_option("arrival", "poisson",
                    "arrival process: poisson | "
                    "diurnal,<amp>,<period>,<phase> | "
                    "flash,<t0>,<width>,<boost>,<interval>,<pulses>");
  parser.add_option("classes", "",
                    "bandwidth classes as weight,up_scale,down_cap|... "
                    "(empty = homogeneous)");
  parser.add_option("backend", backend_default,
                    "evaluator: fluid-equilibrium|fluid-transient|"
                    "kernel-sim|chunk-sim|stochastic-epidemic");
  parser.add_option("shards", "1",
                    "torrent shards for the sharded kernel (kernel-sim, "
                    "decomposable schemes; bit-identical for any value)");
  parser.add_option("kernel-threads", "1",
                    "cap on the threads driving the shards (0 = no cap; at "
                    "most one per idle core)");
  parser.add_flag("list-backends",
                  "print the backend capability table and exit");
}

/// The one spec-from-CLI builder shared by evaluate / simulate / sweep.
model::ScenarioSpec spec_from_cli(const util::ArgParser& parser) {
  model::ScenarioSpec spec;
  spec.num_files = parser.get_count("k");
  spec.correlation = parser.get_double("p");
  spec.visit_rate = parser.get_double("lambda0");
  spec.fluid.mu = parser.get_double("mu");
  spec.fluid.eta = parser.get_double("eta");
  spec.fluid.gamma = parser.get_double("gamma");
  spec.scheme = fluid::scheme_from_string(parser.get("scheme"));
  spec.rho = parser.get_double("rho");
  spec.arrival = fluid::parse_arrival(parser.get("arrival"));
  if (!parser.get("classes").empty()) {
    spec.bandwidth_classes = fluid::parse_classes(parser.get("classes"));
  }
  spec.shards = parser.get_count("shards");
  spec.kernel_threads = parser.get_count("kernel-threads", 0);
  return spec;
}

std::string scheme_list(const model::BackendCapabilities& caps) {
  std::string out;
  for (const fluid::SchemeKind scheme :
       {fluid::SchemeKind::kMtcd, fluid::SchemeKind::kMtsd,
        fluid::SchemeKind::kMfcd, fluid::SchemeKind::kCmfsd}) {
    if (!caps.supports_scheme(scheme)) continue;
    if (!out.empty()) out += ',';
    out += std::string(fluid::to_string(scheme));
  }
  return out;
}

int list_backends() {
  const auto yn = [](bool v) { return std::string(v ? "yes" : "-"); };
  util::Table table({"backend", "schemes", "max K", "kind", "p=0",
                     "rho/class", "demand", "pieces", "adapt", "cheaters",
                     "aborts", "faults", "extras"});
  for (const model::Backend* backend : model::backend_registry()) {
    const model::BackendCapabilities caps = backend->capabilities();
    std::string extras;
    if (caps.trajectory) extras += "trajectory ";
    if (caps.sim_counters) extras += "sim-counters ";
    if (!extras.empty()) extras.pop_back();
    std::string demand;
    if (caps.arrivals_time_varying) demand += "lambda(t) ";
    if (caps.bandwidth_classes) demand += "classes ";
    if (!demand.empty()) demand.pop_back();
    table.add_row({std::string(backend->name()), scheme_list(caps),
                   caps.max_files == 0 ? std::string("-")
                                       : std::to_string(caps.max_files),
                   std::string(caps.monte_carlo ? "monte-carlo"
                                                : "deterministic"),
                   yn(caps.zero_correlation), yn(caps.rho_per_class),
                   demand.empty() ? "-" : demand,
                   yn(caps.piece_policies), yn(caps.adapt), yn(caps.cheaters),
                   yn(caps.aborts), yn(caps.faults),
                   extras.empty() ? "-" : extras});
  }
  table.write_pretty(std::cout);
  std::cout << "\nspecs outside a backend's declared capabilities return a "
               "typed 'unsupported'\noutcome, never a crash; see "
               "docs/BACKENDS.md.\n";
  return 0;
}

/// The chunk-level substrate's own measurements: the emergent sharing
/// efficiency, and at K > 1 the per-torrent (per-file) breakdown.
void print_chunk_details(const sim::ChunkSimResult& chunk) {
  std::cout << "\nemergent eta: " << chunk.emergent_eta
            << "  (downloader share " << chunk.downloader_upload_share
            << ", idle " << chunk.idle_fraction << ")\n";
  if (chunk.fluid_prediction > 0.0) {
    std::cout << "single-torrent fluid T at measured eta: "
              << chunk.fluid_prediction << '\n';
  }
  if (chunk.files.size() > 1) {
    util::Table table({"file", "eta_f", "downloaders", "seeds",
                       "completions", "dl time"});
    table.set_precision(5);
    for (std::size_t f = 0; f < chunk.files.size(); ++f) {
      const sim::ChunkFileResult& fr = chunk.files[f];
      table.add_row({static_cast<double>(f + 1), fr.emergent_eta,
                     fr.avg_downloaders, fr.avg_seeds,
                     static_cast<double>(fr.completions),
                     fr.mean_download_time});
    }
    table.write_pretty(std::cout);
  }
}

void print_outcome(const model::Outcome& outcome) {
  std::cout << "scheme " << fluid::to_string(outcome.scheme)
            << "  p = " << outcome.correlation << '\n'
            << "avg online time per file:   " << outcome.avg_online_per_file
            << '\n'
            << "avg download time per file: "
            << outcome.avg_download_per_file << "\n\n";
  util::Table table({"class", "online time", "download time",
                     "online/file", "dl/file"});
  table.set_precision(5);
  for (std::size_t i = 0; i < outcome.per_class.num_classes(); ++i) {
    table.add_row({static_cast<double>(i + 1),
                   outcome.per_class.online_time[i],
                   outcome.per_class.download_time[i],
                   outcome.per_class.online_per_file[i],
                   outcome.per_class.download_per_file[i]});
  }
  table.write_pretty(std::cout);
  if (outcome.chunk.has_value()) print_chunk_details(*outcome.chunk);
}

int cmd_evaluate(int argc, const char* const* argv) {
  util::ArgParser parser("btmf_tool evaluate",
                         "steady-state evaluation of one scheme");
  add_spec_options(parser, "fluid-equilibrium");
  parser.add_option("horizon", "6000",
                    "time horizon (fluid-transient and the simulators)");
  parser.add_option("seed", "42", "RNG seed (stochastic backends)");
  if (!parser.parse(argc, argv)) return 0;
  if (parser.get_flag("list-backends")) return list_backends();

  model::ScenarioSpec spec = spec_from_cli(parser);
  spec.horizon = parser.get_double("horizon");
  spec.warmup = spec.horizon * 0.25;
  const long long seed = parser.get_int("seed");
  require(seed >= 0, "--seed must be non-negative");
  spec.seed = static_cast<std::uint64_t>(seed);

  const model::Backend& backend =
      model::require_backend(parser.get("backend"));
  print_outcome(backend.evaluate_or_throw(spec));
  return 0;
}

int cmd_simulate(int argc, const char* const* argv) {
  util::ArgParser parser("btmf_tool simulate",
                         "agent-level swarm simulation of one scheme");
  add_spec_options(parser, "kernel-sim");
  parser.add_option("cheaters", "0.0", "fraction of multi-file cheaters");
  parser.add_option("theta", "0.0", "downloader abort rate");
  parser.add_option("horizon", "5000", "simulated time");
  parser.add_option("seed", "42", "RNG seed");
  parser.add_option("chunks", "32", "chunks per file (chunk-sim backend)");
  parser.add_option("piece-policy", "rarest-first",
                    "chunk-sim piece selection: rarest-first|random|"
                    "mode-suppression");
  parser.add_option("suppression", "0.9",
                    "mode-suppression probability (piece-policy "
                    "mode-suppression)");
  parser.add_option("faults", "",
                    "fault plan, e.g. \"tracker:500:200;churn:1200:0.5\" "
                    "(see docs/FAULTS.md)");
  parser.add_flag("adapt", "enable the Adapt rho controller");
  parser.add_flag("paranoid",
                  "audit the kernel's invariants after every event");
  parser.add_option("metrics-out", "",
                    "write a metrics + time-series JSON snapshot here");
  parser.add_option("trace-out", "",
                    "write a Chrome trace_event JSON here (load in Perfetto)");
  parser.add_option("sample-dt", "0",
                    "time-series sampling cadence (0 = horizon / 512)");
  if (!parser.parse(argc, argv)) return 0;
  if (parser.get_flag("list-backends")) return list_backends();

  model::ScenarioSpec spec = spec_from_cli(parser);
  spec.cheater_fraction = parser.get_double("cheaters");
  spec.abort_rate = parser.get_double("theta");
  spec.adapt.enabled = parser.get_flag("adapt");
  spec.horizon = parser.get_double("horizon");
  spec.warmup = spec.horizon * 0.25;
  const long long seed = parser.get_int("seed");
  require(seed >= 0, "--seed must be non-negative");
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.num_chunks = parser.get_count("chunks");
  spec.chunk_policy = sim::piece_policy_from_string(parser.get("piece-policy"));
  spec.chunk_suppression = parser.get_double("suppression");
  if (!parser.get("faults").empty()) {
    spec.faults = sim::parse_fault_plan(parser.get("faults"));
  }

  const model::Backend& backend =
      model::require_backend(parser.get("backend"));
  const bool kernel = backend.name() == "kernel-sim";

  // Telemetry sinks and the paranoid auditor hook into the event kernel's
  // run loop, so they exist only behind the kernel-sim backend; other
  // backends evaluate the same spec without them.
  const std::string metrics_out = parser.get("metrics-out");
  const std::string trace_out = parser.get("trace-out");
  const bool paranoid = parser.get_flag("paranoid");
  if (!kernel) {
    require(metrics_out.empty() && trace_out.empty() && !paranoid &&
                parser.get_double("sample-dt") == 0.0,
            "--metrics-out/--trace-out/--sample-dt/--paranoid require "
            "--backend kernel-sim");
    print_outcome(backend.evaluate_or_throw(spec));
    return 0;
  }

  // kernel-sim: run the exact config the backend would build — via the
  // shared sim_config_from_spec mapping — with the sinks attached.
  spec.validate();
  if (const std::optional<std::string> reason =
          backend.unsupported_reason(spec)) {
    throw ConfigError(*reason);
  }
  sim::SimConfig config = model::sim_config_from_spec(spec);
  config.paranoid = paranoid;

  // Telemetry sinks: fail fast on unwritable paths before the long run.
  if (!metrics_out.empty()) obs::require_writable_path(metrics_out);
  if (!trace_out.empty()) obs::require_writable_path(trace_out);
  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder recorder;
  std::optional<obs::TraceWriter> trace;
  if (!metrics_out.empty()) {
    config.obs.metrics = &metrics;
    config.obs.recorder = &recorder;
  }
  if (!trace_out.empty()) {
    trace.emplace("btmf_tool simulate");
    config.obs.trace = &*trace;
  }
  config.obs.sample_dt = parser.get_double("sample-dt");
  config.validate();  // reject bad rho/cheaters/theta/horizon/faults here

  const sim::SimResult r = sim::run_simulation(config);
  if (!metrics_out.empty()) {
    const obs::MetricsSnapshot snapshot = metrics.snapshot();
    obs::write_combined_json(metrics_out, &snapshot, &recorder);
    std::cout << "metrics + series written to " << metrics_out << '\n';
  }
  if (trace.has_value()) {
    trace->write_file(trace_out);
    std::cout << "trace written to " << trace_out << '\n';
  }
  std::cout << "avg online time per file:   " << r.avg_online_per_file
            << "\navg download time per file: " << r.avg_download_per_file
            << "\nusers sampled / censored / aborted: " << r.total_users
            << " / " << r.censored_users << " / " << r.aborted_users
            << "\nevents processed: " << r.events_processed << '\n';
  if (!config.faults.empty()) {
    std::cout << "faults injected: " << r.faults_injected
              << "  downloads killed: " << r.downloads_killed
              << "  arrivals dropped/queued: " << r.arrivals_dropped << " / "
              << r.arrivals_queued << "\nreadmissions: " << r.readmissions
              << " (queue peak " << r.readmission_queue_peak
              << ")  time to recover: " << r.time_to_recover
              << "  unrecovered: " << r.faults_unrecovered << '\n';
  }
  std::cout << '\n';
  util::Table table({"class", "users", "online/file", "+-95%",
                     "little online/file", "avg downloaders"});
  table.set_precision(5);
  for (std::size_t i = 0; i < r.classes.size(); ++i) {
    const sim::PerClassResult& c = r.classes[i];
    table.add_row({static_cast<double>(i + 1),
                   static_cast<double>(c.completed_users),
                   c.mean_online_per_file, c.ci_online_per_file,
                   c.little_online_time, c.avg_downloaders});
  }
  table.write_pretty(std::cout);
  return 0;
}

/// The supervision flags shared by sweep and reproduce. None of them can
/// change a computed number — only whether/how points get (re)computed.
void add_robust_options(util::ArgParser& parser) {
  parser.add_option("timeout-s", "0",
                    "per-point wall-clock deadline in seconds (0 = none)");
  parser.add_option("retries", "0",
                    "supervisor retries per point (escalating solver "
                    "tolerances where the backend allows)");
  parser.add_flag("isolate",
                  "run each computed point in a forked worker subprocess "
                  "(crashes are contained and retried, not fatal)");
  parser.add_flag("resume",
                  "resume an interrupted run: replay journaled failures "
                  "and serve completed points from the cache");
}

void robust_options_from_cli(const util::ArgParser& parser,
                             robust::SupervisorOptions* robust,
                             bool* resume) {
  const double timeout_s = parser.get_double("timeout-s");
  require(timeout_s >= 0.0, "--timeout-s must be non-negative");
  robust->timeout_s = timeout_s;
  robust->retry.retries = parser.get_count("retries", 0);
  robust->isolate = parser.get_flag("isolate");
  // Fail at parse time, not per point: containment was explicitly asked
  // for, so a platform that cannot provide it must refuse, not degrade.
  require(!robust->isolate || robust::isolation_supported(),
          "--isolate requires fork(), which this platform lacks");
  *resume = parser.get_flag("resume");
}

int cmd_sweep(int argc, const char* const* argv) {
  util::ArgParser parser("btmf_tool sweep",
                         "avg online time per file vs correlation p");
  add_spec_options(parser, "fluid-equilibrium");
  parser.add_option("steps", "10", "p samples in (0, 1]");
  parser.add_option("seed", "42", "RNG seed (stochastic backends)");
  parser.add_option("csv", "", "save CSV here");
  parser.add_option("cache-dir", "",
                    "sweep point cache root ('' = uncached)");
  parser.add_option("jobs", "0",
                    "cap on worker threads (0 = no cap; at most one per "
                    "idle core)");
  add_robust_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  if (parser.get_flag("list-backends")) return list_backends();

  model::ScenarioSpec base = spec_from_cli(parser);
  const long long seed = parser.get_int("seed");
  require(seed >= 0, "--seed must be non-negative");
  base.seed = static_cast<std::uint64_t>(seed);
  // The grid supplies p; pin the base's correlation so --p cannot split
  // the cache namespace for otherwise-identical sweeps.
  base.correlation = 1.0;
  const std::size_t steps = parser.get_count("steps");
  const long long jobs = parser.get_int("jobs");
  require(jobs >= 0, "--jobs must be >= 0");
  const model::Backend& backend =
      model::require_backend(parser.get("backend"));

  std::vector<double> p_values;
  p_values.reserve(steps);
  for (std::size_t s = 1; s <= steps; ++s) {
    p_values.push_back(static_cast<double>(s) /
                       static_cast<double>(steps));
  }

  // The same engine the reproduce registry uses: content-addressed cache,
  // per-point failure isolation, and the execution supervisor.
  sweep::SweepSpec spec;
  spec.name = "cli-" + std::string(backend.name()) + "-" +
              std::string(fluid::to_string(base.scheme));
  spec.grid.axis("p", std::move(p_values));
  spec.fingerprint =
      "backend=" + std::string(backend.name()) + "|" + base.fingerprint();
  const auto eval_point = [base, &backend](const sweep::GridPoint& point,
                                           unsigned attempt) {
    model::ScenarioSpec scenario =
        attempt > 0 ? robust::escalate_spec(base, attempt) : base;
    scenario.correlation = point.at("p");
    const model::Outcome outcome = backend.evaluate_or_throw(scenario);
    sweep::PointResult result;
    result.values["online_per_file"] = outcome.avg_online_per_file;
    result.values["dl_per_file"] = outcome.avg_download_per_file;
    return result;
  };
  spec.compute = [eval_point](const sweep::GridPoint& point) {
    return eval_point(point, 0);
  };
  spec.compute_retry = eval_point;

  sweep::SweepOptions options;
  options.cache_dir = parser.get("cache-dir");
  options.jobs = static_cast<std::size_t>(jobs);
  robust_options_from_cli(parser, &options.robust, &options.resume);

  const sweep::SweepResult sweep = sweep::run_sweep(spec, options);

  util::Table table({"p", "avg online/file", "avg dl/file"});
  table.set_precision(6);
  for (const sweep::PointOutcome& outcome : sweep.points) {
    if (outcome.status != sweep::PointStatus::kOk) continue;
    table.add_row({outcome.point.at("p"),
                   outcome.result.at("online_per_file"),
                   outcome.result.at("dl_per_file")});
  }
  table.write_pretty(std::cout);
  if (!parser.get("csv").empty()) table.save_csv(parser.get("csv"));

  for (const sweep::PointOutcome& outcome : sweep.points) {
    if (outcome.status != sweep::PointStatus::kOk) {
      std::cout << "FAILED [" << robust::to_string(outcome.failure) << "] "
                << outcome.point.canonical() << ": " << outcome.error
                << (outcome.from_journal ? " (replayed from journal)" : "")
                << '\n';
    }
  }
  if (sweep.retries + sweep.timeouts + sweep.crashes + sweep.quarantined >
      0) {
    std::cout << "supervisor: " << sweep.retries << " retries, "
              << sweep.timeouts << " timeouts, " << sweep.crashes
              << " crashes, " << sweep.quarantined
              << " quarantined cache entries\n";
  }
  return sweep.failures == 0 ? 0 : 1;
}

int cmd_adapt(int argc, const char* const* argv) {
  util::ArgParser parser("btmf_tool adapt",
                         "fluid fixed point of the Adapt mechanism");
  parser.add_option("k", "10", "number of files K");
  parser.add_option("p", "0.9", "file correlation in [0, 1]");
  parser.add_option("lambda0", "1.0", "indexing-server visit rate");
  parser.add_option("mu", "0.02", "peer upload bandwidth");
  parser.add_option("eta", "0.5", "downloader sharing efficiency");
  parser.add_option("gamma", "0.05", "seed departure rate");
  parser.add_option("cheaters", "0.5", "fraction of multi-file cheaters");
  if (!parser.parse(argc, argv)) return 0;

  model::ScenarioSpec scenario;
  scenario.num_files = parser.get_count("k");
  scenario.correlation = parser.get_double("p");
  scenario.visit_rate = parser.get_double("lambda0");
  scenario.fluid.mu = parser.get_double("mu");
  scenario.fluid.eta = parser.get_double("eta");
  scenario.fluid.gamma = parser.get_double("gamma");
  scenario.validate();
  const double cheaters = parser.get_double("cheaters");
  require(cheaters >= 0.0 && cheaters <= 1.0,
          "--cheaters must lie in [0, 1]");
  const fluid::AdaptFluidModel model(
      scenario.fluid, scenario.correlation_model().system_entry_rates(),
      cheaters);
  const fluid::AdaptFluidEquilibrium eq = model.solve();

  std::cout << "avg online time per file (everyone): "
            << eq.avg_online_per_file
            << "\navg online time per file (obedient): "
            << eq.obedient_avg_online_per_file << "\n\n";
  util::Table table({"class", "equilibrium rho", "obedient online/file",
                     "cheater online/file"});
  table.set_precision(5);
  for (std::size_t i = 0; i < eq.rho.size(); ++i) {
    table.add_row({static_cast<double>(i + 1), eq.rho[i],
                   eq.obedient.online_per_file[i],
                   eq.cheater.online_per_file[i]});
  }
  table.write_pretty(std::cout);
  return 0;
}

std::string claim_condition(const sweep::Claim& claim) {
  const std::string expected = util::format_double(claim.expected, 6);
  const std::string tol = util::format_double(claim.tolerance, 6);
  switch (claim.relation) {
    case sweep::Relation::kWithin:
      return "want " + expected + " +- " + tol;
    case sweep::Relation::kAtMost:
      return "want <= " + expected + (claim.tolerance != 0.0
                                          ? " (+" + tol + " slack)"
                                          : "");
    case sweep::Relation::kAtLeast:
      return "want >= " + expected + (claim.tolerance != 0.0
                                          ? " (-" + tol + " slack)"
                                          : "");
  }
  return {};
}

int cmd_reproduce(int argc, const char* const* argv) {
  util::ArgParser parser(
      "btmf_tool reproduce",
      "regenerate the paper's figures, check every headline claim against "
      "explicit tolerances, and write docs/REPRODUCTION.md");
  parser.add_option("figure", "all", "fig2|fig3|fig4a|fig4bc|adapt|all");
  parser.add_option("cache-dir", ".btmf-sweep-cache",
                    "sweep point cache root ('' = recompute everything)");
  parser.add_option("jobs", "0",
                    "cap on worker threads (0 = no cap; at most one per "
                    "idle core)");
  parser.add_option("report", "docs/REPRODUCTION.md",
                    "write the paper-vs-measured markdown here ('' = skip)");
  add_robust_options(parser);
  if (!parser.parse(argc, argv)) return 0;

  const long long jobs = parser.get_int("jobs");
  require(jobs >= 0, "--jobs must be >= 0");
  obs::MetricsRegistry metrics;
  sweep::ReproduceOptions options;
  options.cache_dir = parser.get("cache-dir");
  options.jobs = static_cast<std::size_t>(jobs);
  options.metrics = &metrics;
  robust::SupervisorOptions robust;
  robust_options_from_cli(parser, &robust, &options.resume);
  options.timeout_s = robust.timeout_s;
  options.retries = robust.retry.retries;
  options.isolate = robust.isolate;

  const std::string figure = util::to_lower(parser.get("figure"));
  std::vector<const sweep::FigureSpec*> specs;
  if (figure == "all") {
    for (const sweep::FigureSpec& spec : sweep::figure_registry()) {
      specs.push_back(&spec);
    }
  } else {
    const sweep::FigureSpec* spec = sweep::find_figure(figure);
    require(spec != nullptr,
            "unknown figure '" + figure +
                "' (expected fig2|fig3|fig4a|fig4bc|adapt|all)");
    specs.push_back(spec);
  }

  std::vector<sweep::FigureReport> reports;
  reports.reserve(specs.size());
  for (const sweep::FigureSpec* spec : specs) {
    std::cout << "== " << spec->name << " — " << spec->title << " ("
              << spec->paper_ref << ")\n";
    reports.push_back(spec->run(options));
    const sweep::FigureReport& report = reports.back();
    for (const sweep::Claim& claim : report.claims) {
      if (claim.skipped) {
        std::cout << "  SKIP  " << claim.id
                  << ": not evaluated (the sweep had failed points)\n";
        continue;
      }
      std::cout << (claim.pass ? "  PASS  " : "  FAIL  ") << claim.id << ": "
                << "measured " << util::format_double(claim.measured, 6)
                << " (" << claim_condition(claim) << ")\n";
    }
    std::cout << "  sweep: " << report.stats.points << " points — "
              << report.stats.cache_hits << " cached, "
              << report.stats.cache_misses << " computed, "
              << report.stats.failures << " failed ("
              << util::format_double(report.stats.seconds, 3) << " s)\n";
  }

  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  const auto counter = [&snapshot](const char* name) -> std::uint64_t {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  std::size_t passed = 0;
  std::size_t total = 0;
  for (const sweep::FigureReport& report : reports) {
    passed += report.num_passed();
    total += report.claims.size();
  }
  std::cout << "\nsweep metrics: " << counter("sweep.points_done")
            << " points done, " << counter("sweep.cache_hits")
            << " cache hits, " << counter("sweep.cache_misses")
            << " computed, " << counter("sweep.failures") << " failures\n";
  if (counter("robust.retries") + counter("robust.timeouts") +
          counter("robust.crashes") + counter("robust.quarantined") >
      0) {
    std::cout << "supervisor: " << counter("robust.retries") << " retries, "
              << counter("robust.timeouts") << " timeouts, "
              << counter("robust.crashes") << " crashes, "
              << counter("robust.quarantined")
              << " quarantined cache entries\n";
  }
  std::cout << "claims: " << passed << "/" << total << " passed\n";

  // A partial --figure run never overwrites the committed report at the
  // default path (it would silently shrink it); redirect with --report to
  // capture a partial run's claim summary (the CI smoke test does).
  const std::string report_path = parser.get("report");
  if (!report_path.empty()) {
    if (figure == "all" || report_path != "docs/REPRODUCTION.md") {
      sweep::write_reproduction_report(report_path, reports);
      std::cout << "report written to " << report_path << '\n';
    } else {
      std::cout << "partial run (--figure " << figure
                << "); not overwriting " << report_path
                << " (pass --report elsewhere to save this run)\n";
    }
  }
  return passed == total ? 0 : 1;
}

// --- serve / query / version ----------------------------------------------

/// Set by SIGTERM/SIGINT; the serve loop polls it and drains.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(int argc, const char* const* argv) {
  util::ArgParser parser(
      "btmf_tool serve",
      "run the evaluation daemon: evaluate/sweep requests over a socket, "
      "warm hits from the disk cache, duplicates coalesced "
      "(see docs/SERVE.md)");
  parser.add_option("listen", ".btmf-serve.sock",
                    "endpoint: unix:<path> or tcp:<host>:<port> "
                    "(tcp port 0 = ephemeral, printed on startup)");
  parser.add_option("cache-dir", ".btmf-sweep-cache",
                    "content-addressed result cache ('' = uncached)");
  parser.add_option("workers", "4",
                    "evaluation worker threads (0 = one per core)");
  parser.add_option("queue-depth", "128",
                    "bounded evaluation queue; a full queue answers a "
                    "typed 'overloaded' error instead of queueing");
  parser.add_option("max-connections", "64",
                    "concurrent client connections admitted");
  parser.add_option("timeout-s", "0",
                    "per-evaluation wall-clock deadline (0 = none)");
  parser.add_option("retries", "0",
                    "supervisor retries per evaluation (escalating solver "
                    "tolerances where the backend allows)");
  parser.add_flag("isolate",
                  "run each evaluation in a forked worker subprocess "
                  "(a crashing request is contained, not fatal)");
  if (!parser.parse(argc, argv)) return 0;

  serve::DaemonOptions options;
  options.endpoint = serve::Endpoint::parse(parser.get("listen"));
  options.cache_dir = parser.get("cache-dir");
  const long long workers = parser.get_int("workers");
  require(workers >= 0, "--workers must be non-negative");
  options.workers = static_cast<std::size_t>(workers);
  options.queue_depth = parser.get_count("queue-depth");
  options.max_connections = parser.get_count("max-connections");
  const double timeout_s = parser.get_double("timeout-s");
  require(timeout_s >= 0.0, "--timeout-s must be non-negative");
  options.robust.timeout_s = timeout_s;
  options.robust.retry.retries = parser.get_count("retries", 0);
  options.robust.isolate = parser.get_flag("isolate");
  require(!options.robust.isolate || robust::isolation_supported(),
          "--isolate requires fork(), which this platform lacks");

  serve::Daemon daemon(std::move(options));
  daemon.start();
  std::cout << "serving on " << daemon.endpoint().describe() << " (salt "
            << serve::handshake_salt() << "); SIGTERM drains\n"
            << std::flush;

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "draining...\n" << std::flush;
  daemon.drain();
  const obs::MetricsSnapshot snapshot = daemon.stats();
  const auto counter = [&snapshot](const char* name) -> std::uint64_t {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  std::cout << "served " << counter("serve.requests") << " requests — "
            << counter("serve.cache_hit") << " cache hits, "
            << counter("serve.coalesced") << " coalesced, "
            << counter("serve.evaluations") << " evaluations, "
            << counter("serve.overload") << " overloads\n";
  return 0;
}

int cmd_query(int argc, const char* const* argv) {
  util::ArgParser parser(
      "btmf_tool query",
      "query a running serve daemon: one evaluation, an axis sweep, "
      "--stats, or --ping");
  parser.add_option("connect", ".btmf-serve.sock",
                    "daemon endpoint: unix:<path> or tcp:<host>:<port>");
  add_spec_options(parser, "fluid-equilibrium");
  parser.add_option("horizon", "6000",
                    "time horizon (fluid-transient and the simulators)");
  parser.add_option("seed", "42", "RNG seed (stochastic backends)");
  parser.add_option("axis", "",
                    "sweep this axis instead of one evaluation "
                    "(p|rho|lambda0|mu|eta|gamma|cheaters|theta|horizon|"
                    "seed)");
  parser.add_option("values", "",
                    "comma-separated axis values for --axis");
  parser.add_flag("stats", "print the daemon's metrics JSON and exit");
  parser.add_flag("ping", "liveness probe and exit");
  if (!parser.parse(argc, argv)) return 0;
  if (parser.get_flag("list-backends")) return list_backends();

  serve::Client client =
      serve::Client::connect(serve::Endpoint::parse(parser.get("connect")));
  if (parser.get_flag("ping")) {
    client.ping();
    std::cout << "pong\n";
    return 0;
  }
  if (parser.get_flag("stats")) {
    std::cout << client.stats_json() << '\n';
    return 0;
  }

  model::ScenarioSpec spec = spec_from_cli(parser);
  spec.horizon = parser.get_double("horizon");
  spec.warmup = spec.horizon * 0.25;
  const long long seed = parser.get_int("seed");
  require(seed >= 0, "--seed must be non-negative");
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.validate();
  const std::string backend = parser.get("backend");

  const auto print_reply = [](const serve::EvalReply& reply) {
    if (!reply.ok) {
      std::cout << "error [" << serve::to_string(reply.code) << "] "
                << reply.message << '\n';
      return false;
    }
    for (const auto& [name, value] : reply.values) {
      std::cout << name << " = " << util::format_double_exact(value) << '\n';
    }
    return true;
  };

  const std::string axis = parser.get("axis");
  if (axis.empty()) {
    require(parser.get("values").empty(), "--values requires --axis");
    const serve::EvalReply reply = client.evaluate(backend, spec);
    if (reply.ok) {
      std::cout << (reply.cached ? "[cache hit]"
                                 : reply.coalesced ? "[coalesced]"
                                                   : "[computed]")
                << '\n';
    }
    return print_reply(reply) ? 0 : 1;
  }

  std::vector<double> values;
  for (const std::string& token :
       util::split(parser.get("values"), ',')) {
    values.push_back(util::parse_double(util::trim(token), "--values"));
  }
  require(!values.empty(), "--axis requires a non-empty --values list");
  const std::vector<serve::EvalReply> replies =
      client.sweep(backend, axis, values, spec);
  bool all_ok = true;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    std::cout << axis << " = " << util::format_double(values[i], 6) << ":\n";
    if (!print_reply(replies[i])) all_ok = false;
  }
  return all_ok ? 0 : 1;
}

int cmd_version() {
  std::cout << "btmf " << kVersionString << '\n'
            << "cache format: v" << sweep::kCacheFormatVersion << " (salt "
            << sweep::cache_format_salt() << ")\n"
            << "serve protocol: " << serve::kProtocolVersion << '\n';
  return 0;
}

void print_usage() {
  std::cout << "btmf_tool — multiple-file BitTorrent downloading analysis\n"
               "usage: btmf_tool "
               "<evaluate|simulate|sweep|adapt|reproduce|serve|query|version>"
               " [options]\n"
               "       btmf_tool <subcommand> --help for details\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string subcommand = argv[1];
  // Shift argv so each subcommand parser sees its own options.
  std::vector<const char*> args;
  args.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) args.push_back(argv[i]);

  try {
    if (subcommand == "evaluate") {
      return cmd_evaluate(static_cast<int>(args.size()), args.data());
    }
    if (subcommand == "simulate") {
      return cmd_simulate(static_cast<int>(args.size()), args.data());
    }
    if (subcommand == "sweep") {
      return cmd_sweep(static_cast<int>(args.size()), args.data());
    }
    if (subcommand == "adapt") {
      return cmd_adapt(static_cast<int>(args.size()), args.data());
    }
    if (subcommand == "reproduce") {
      return cmd_reproduce(static_cast<int>(args.size()), args.data());
    }
    if (subcommand == "serve") {
      return cmd_serve(static_cast<int>(args.size()), args.data());
    }
    if (subcommand == "query") {
      return cmd_query(static_cast<int>(args.size()), args.data());
    }
    if (subcommand == "version" || subcommand == "--version") {
      return cmd_version();
    }
    if (subcommand == "--help" || subcommand == "-h") {
      print_usage();
      return 0;
    }
    std::cerr << "unknown subcommand '" << subcommand << "'\n";
    print_usage();
    return 1;
  } catch (const btmf::Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
