#include "btmf/model/spec.h"

#include "btmf/util/check.h"
#include "btmf/util/strings.h"

namespace btmf::model {

void ScenarioSpec::validate() const {
  BTMF_CHECK_MSG(num_files >= 1, "num_files must be >= 1");
  BTMF_CHECK_MSG(num_files <= kMaxFiles,
                 "num_files must be <= " + std::to_string(kMaxFiles));
  BTMF_CHECK_MSG(correlation >= 0.0 && correlation <= 1.0,
                 "correlation p must lie in [0, 1]");
  BTMF_CHECK_MSG(visit_rate > 0.0, "visit_rate lambda0 must be positive");
  fluid.validate();
  arrival.validate();
  fluid::validate_classes(bandwidth_classes);
  BTMF_CHECK_MSG(bandwidth_classes.size() <= 16,
                 "at most 16 bandwidth classes are supported");
  BTMF_CHECK_MSG(epidemic_replications >= 1,
                 "epidemic_replications must be >= 1");
  BTMF_CHECK_MSG(epidemic_replications <= kMaxEpidemicReplications,
                 "epidemic_replications must be <= " +
                     std::to_string(kMaxEpidemicReplications));
  BTMF_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "rho must lie in [0, 1]");
  BTMF_CHECK_MSG(
      rho_per_class.empty() || rho_per_class.size() == num_files,
      "rho_per_class must be empty or hold one entry per class");
  for (const double r : rho_per_class) {
    BTMF_CHECK_MSG(r >= 0.0 && r <= 1.0,
                   "every rho_per_class entry must lie in [0, 1]");
  }
  BTMF_CHECK_MSG(transient_samples >= 2,
                 "transient_samples must be >= 2 (endpoints)");
  BTMF_CHECK_MSG(transient_samples <= kMaxTransientSamples,
                 "transient_samples must be <= " +
                     std::to_string(kMaxTransientSamples));
  BTMF_CHECK_MSG(horizon > 0.0, "horizon must be positive");
  BTMF_CHECK_MSG(warmup >= 0.0 && warmup < horizon,
                 "warmup must lie in [0, horizon)");
  BTMF_CHECK_MSG(cheater_fraction >= 0.0 && cheater_fraction <= 1.0,
                 "cheater_fraction must lie in [0, 1]");
  BTMF_CHECK_MSG(abort_rate >= 0.0, "abort_rate theta must be >= 0");
  BTMF_CHECK_MSG(num_chunks >= 1, "num_chunks must be >= 1");
  BTMF_CHECK_MSG(chunk_suppression >= 0.0 && chunk_suppression <= 1.0,
                 "chunk_suppression must lie in [0, 1]");
  BTMF_CHECK_MSG(shards >= 1, "shards must be >= 1");
  faults.validate();
}

namespace {

std::string exact(double v) { return util::format_double_exact(v); }

void append_doubles(std::string& out, const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += exact(values[i]);
  }
}

/// Every fault entry with every field, in schedule-declaration order.
/// A plan differing in any single number fingerprints differently.
std::string fault_fingerprint(const sim::FaultPlan& plan) {
  std::string out;
  for (const sim::TrackerOutageFault& f : plan.tracker_outages) {
    out += "tracker(" + exact(f.start) + ',' + exact(f.duration) + ',' +
           (f.drop ? '1' : '0') + ',' + exact(f.readmit_rate) + ')';
  }
  for (const sim::SeedFailureFault& f : plan.seed_failures) {
    out += "seed(" + exact(f.start) + ',' + exact(f.duration) + ')';
  }
  for (const sim::ChurnBurstFault& f : plan.churn_bursts) {
    out += "churn(" + exact(f.time) + ',' + exact(f.kill_fraction) + ',' +
           exact(f.progress_loss) + ',' + exact(f.backoff_rate) + ')';
  }
  for (const sim::BandwidthFault& f : plan.bandwidth_faults) {
    out += "bw(" + exact(f.start) + ',' + exact(f.duration) + ',' +
           exact(f.scale) + ')';
  }
  return out;
}

}  // namespace

std::string ScenarioSpec::fingerprint() const {
  std::string out =
      "k=" + std::to_string(num_files) + ";p=" + exact(correlation) +
      ";lambda0=" + exact(visit_rate) + ";mu=" + exact(fluid.mu) +
      ";eta=" + exact(fluid.eta) + ";gamma=" + exact(fluid.gamma) +
      ";scheme=" + std::string(fluid::to_string(scheme)) +
      ";rho=" + exact(rho);
  out += ";rho_per_class=";
  append_doubles(out, rho_per_class);
  out += ";ode=" + exact(solver.rtol) + ',' + exact(solver.atol) + ',' +
         std::to_string(solver.max_steps);
  out += ";samples=" + std::to_string(transient_samples);
  out += ";horizon=" + exact(horizon) + ";warmup=" + exact(warmup) +
         ";seed=" + std::to_string(seed) +
         ";cheaters=" + exact(cheater_fraction) +
         ";theta=" + exact(abort_rate);
  out += ";adapt=" + std::string(adapt.enabled ? "1" : "0") + ',' +
         exact(adapt.initial_rho) + ',' + exact(adapt.period) + ',' +
         exact(adapt.phi_lo) + ',' + exact(adapt.phi_hi) + ',' +
         exact(adapt.step_up) + ',' + exact(adapt.step_down) + ',' +
         std::to_string(adapt.consecutive);
  out += ";faults=" + fault_fingerprint(faults);
  out += ";chunks=" + std::to_string(num_chunks) +
         ";piece=" + std::string(sim::to_string(chunk_policy)) +
         ";suppress=" + exact(chunk_suppression);
  // Demand-model keys are emitted only away from their homogeneous
  // defaults so every spec that predates the demand model keeps its
  // exact cache key (pinned by spec_test and the reproduce byte-diff).
  if (!arrival.homogeneous()) out += ";arrival=" + fluid::format_arrival(arrival);
  if (!bandwidth_classes.empty()) {
    out += ";classes=" + fluid::format_classes(bandwidth_classes);
  }
  if (epidemic_replications != 8) {
    out += ";ereps=" + std::to_string(epidemic_replications);
  }
  // `shards` and `kernel_threads` are intentionally absent: the sharded
  // kernel is bit-identical across every execution configuration, so a
  // cached result keyed without them serves all of them.
  return out;
}

sim::SimConfig sim_config_from_spec(const ScenarioSpec& spec) {
  sim::SimConfig config;
  config.num_files = spec.num_files;
  config.correlation = spec.correlation;
  config.visit_rate = spec.visit_rate;
  config.arrival = spec.arrival;
  config.bandwidth_classes = spec.bandwidth_classes;
  config.fluid = spec.fluid;
  config.scheme = spec.scheme;
  config.rho = spec.rho;
  config.cheater_fraction = spec.cheater_fraction;
  config.adapt = spec.adapt;
  config.abort_rate = spec.abort_rate;
  config.horizon = spec.horizon;
  config.warmup = spec.warmup;
  config.seed = spec.seed;
  config.faults = spec.faults;
  config.shards = spec.shards;
  config.kernel_threads = spec.kernel_threads;
  return config;
}

}  // namespace btmf::model
