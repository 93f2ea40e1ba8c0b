#include "btmf/sim/simulator.h"

#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "btmf/math/stats.h"
#include "btmf/parallel/fan_out.h"
#include "btmf/parallel/seeds.h"
#include "btmf/sim/policies.h"
#include "btmf/sim/sharded_kernel.h"
#include "btmf/util/check.h"
#include "btmf/util/error.h"

namespace btmf::sim {

bool auditor_enabled(bool requested) {
#ifdef BTMF_PARANOID
  (void)requested;
  return true;
#else
  return requested;
#endif
}

void SimConfig::validate() const {
  BTMF_CHECK_MSG(num_files >= 1, "num_files must be >= 1");
  BTMF_CHECK_MSG(correlation >= 0.0 && correlation <= 1.0,
                 "correlation p must lie in [0, 1]");
  if (!file_probs.empty()) {
    BTMF_CHECK_MSG(file_probs.size() == num_files,
                   "file_probs must have exactly num_files entries");
    for (const double p : file_probs) {
      BTMF_CHECK_MSG(p >= 0.0 && p <= 1.0,
                     "file request probabilities must lie in [0, 1]");
    }
  }
  BTMF_CHECK_MSG(visit_rate > 0.0, "visit_rate lambda0 must be positive");
  arrival.validate();
  fluid::validate_classes(bandwidth_classes);
  fluid.validate();
  BTMF_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "rho must lie in [0, 1]");
  BTMF_CHECK_MSG(cheater_fraction >= 0.0 && cheater_fraction <= 1.0,
                 "cheater_fraction must lie in [0, 1]");
  BTMF_CHECK_MSG(download_bw > 0.0, "download_bw must be positive");
  BTMF_CHECK_MSG(abort_rate >= 0.0, "abort_rate must be non-negative");
  BTMF_CHECK_MSG(file_size > 0.0, "file_size must be positive");
  BTMF_CHECK_MSG(horizon > 0.0, "horizon must be positive");
  BTMF_CHECK_MSG(warmup >= 0.0 && warmup < horizon,
                 "warmup must lie in [0, horizon)");
  BTMF_CHECK_MSG(max_active_peers > 0, "max_active_peers must be positive");
  BTMF_CHECK_MSG(shards >= 1, "shards must be >= 1");
  // The fault layer is globally coupled — churn bursts pick victims across
  // every torrent and outages gate the shared arrival path — so a faulted
  // run cannot be decomposed per torrent. Requesting shards > 1 with a
  // fault plan used to be silently forced back to one shard; it is now a
  // typed configuration error (surfaced as kUnsupported through the model
  // layer) so callers learn the limitation instead of silently losing
  // their parallelism. ROADMAP open item: shardable fault plans.
  BTMF_CHECK_MSG(faults.empty() || shards == 1,
                 "fault plans are globally coupled (cross-torrent churn and "
                 "outages) and require shards == 1");
  if (adapt.enabled) {
    BTMF_CHECK_MSG(adapt.period > 0.0, "adapt.period must be positive");
    BTMF_CHECK_MSG(adapt.phi_lo <= adapt.phi_hi,
                   "adapt needs phi_lo <= phi_hi (dead band)");
    BTMF_CHECK_MSG(adapt.step_up >= 0.0 && adapt.step_down >= 0.0,
                   "adapt steps must be non-negative");
    BTMF_CHECK_MSG(adapt.consecutive >= 1, "adapt.consecutive must be >= 1");
    BTMF_CHECK_MSG(
        adapt.initial_rho >= 0.0 && adapt.initial_rho <= 1.0,
        "adapt.initial_rho must lie in [0, 1]");
  }
  faults.validate();
  obs.validate();
}

SimResult run_simulation(const SimConfig& config) {
  PolicyFactory factory;
  switch (config.scheme) {
    case fluid::SchemeKind::kMtcd:
      factory = make_mtcd_policy;
      break;
    case fluid::SchemeKind::kMtsd:
      factory = make_mtsd_policy;
      break;
    case fluid::SchemeKind::kMfcd:
      factory = make_mfcd_policy;
      break;
    case fluid::SchemeKind::kCmfsd:
      factory = make_cmfsd_policy;
      break;
  }
  ShardedKernel kernel(config, std::move(factory));
  return kernel.run();
}

ReplicationSummary run_replications(const SimConfig& config,
                                    std::size_t num_replications) {
  BTMF_CHECK_MSG(num_replications >= 1, "need at least one replication");
  // Replications are isolated: one seed hitting a solver divergence or a
  // runaway population must not discard its siblings' work. Each slot
  // records either a result or the failure, and the aggregates below run
  // over the survivors.
  std::vector<SimResult> runs(num_replications);
  std::vector<std::uint64_t> seeds(num_replications, 0);
  std::vector<std::string> errors(num_replications);
  std::vector<char> failed(num_replications, 0);
  parallel::fan_out(num_replications, [&](std::size_t r, std::size_t) {
    SimConfig rep = config;
    rep.seed = parallel::derive_seed(config.seed, r);
    seeds[r] = rep.seed;
    try {
      runs[r] = run_simulation(rep);
    } catch (const std::exception& e) {
      failed[r] = 1;
      errors[r] = e.what();
    }
  });

  ReplicationSummary summary;
  for (std::size_t r = 0; r < num_replications; ++r) {
    if (failed[r] != 0) {
      summary.failures.push_back({r, seeds[r], errors[r]});
    } else {
      summary.runs.push_back(std::move(runs[r]));
    }
  }
  if (summary.runs.empty()) {
    throw SolverError("all " + std::to_string(num_replications) +
                      " replications failed; first failure (replication " +
                      std::to_string(summary.failures.front().index) +
                      ", seed " +
                      std::to_string(summary.failures.front().seed) +
                      "): " + summary.failures.front().message);
  }

  math::RunningStats online, download;
  const unsigned num_classes = config.num_files;
  std::vector<math::RunningStats> c_online(num_classes),
      c_download(num_classes), c_lonline(num_classes),
      c_ldownload(num_classes), c_rho(num_classes);
  for (const SimResult& run : summary.runs) {
    online.add(run.avg_online_per_file);
    download.add(run.avg_download_per_file);
    for (unsigned k = 0; k < num_classes; ++k) {
      const PerClassResult& c = run.classes[k];
      if (c.completed_users == 0) continue;
      c_online[k].add(c.mean_online_per_file);
      c_download[k].add(c.mean_download_per_file);
      c_lonline[k].add(c.little_online_time);
      c_ldownload[k].add(c.little_download_time);
      c_rho[k].add(c.mean_final_rho);
    }
  }
  summary.mean_online_per_file = online.mean();
  summary.mean_download_per_file = download.mean();
  // A single surviving replication has no across-run variance; report
  // exactly 0 rather than trusting the n-1 divisor path with n == 1.
  if (summary.runs.size() > 1) {
    summary.stderr_online_per_file = online.stderr_mean();
    summary.stderr_download_per_file = download.stderr_mean();
  }
  summary.class_online_per_file.resize(num_classes);
  summary.class_download_per_file.resize(num_classes);
  summary.class_little_online.resize(num_classes);
  summary.class_little_download.resize(num_classes);
  summary.class_mean_final_rho.resize(num_classes);
  for (unsigned k = 0; k < num_classes; ++k) {
    summary.class_online_per_file[k] = c_online[k].mean();
    summary.class_download_per_file[k] = c_download[k].mean();
    summary.class_little_online[k] = c_lonline[k].mean();
    summary.class_little_download[k] = c_ldownload[k].mean();
    summary.class_mean_final_rho[k] = c_rho[k].mean();
  }
  return summary;
}

}  // namespace btmf::sim
