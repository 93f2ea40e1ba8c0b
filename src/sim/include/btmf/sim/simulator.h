// Public entry points of the discrete-event simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "btmf/sim/config.h"
#include "btmf/sim/stats.h"

namespace btmf::sim {

/// Runs one replication of `config` on the event kernel with the policy
/// of `config.scheme` (btmf/sim/policies.h). MTCD decomposes per torrent
/// and runs sharded (cfg.shards / cfg.kernel_threads apply); the other
/// schemes do not decompose and run one serial kernel.
SimResult run_simulation(const SimConfig& config);

/// One replication that died with an exception instead of producing a
/// SimResult; `seed` is the derived per-replication seed, so the failure
/// reproduces as a single run_simulation call.
struct ReplicationFailure {
  std::size_t index = 0;     ///< replication number in [0, num_replications)
  std::uint64_t seed = 0;    ///< derived seed of the failed run
  std::string message;       ///< what() of the exception
};

/// Aggregate over independent replications (seeds derived from
/// config.seed via SplitMix64 stream splitting; runs execute on idle
/// cores through parallel::fan_out).
///
/// A replication that throws (solver divergence, runaway population,
/// audit failure) is isolated: it lands in `failures` instead of taking
/// down its siblings, and the aggregates are computed over the surviving
/// runs. Only when *every* replication fails does run_replications throw.
struct ReplicationSummary {
  std::vector<SimResult> runs;           ///< surviving runs, in seed order
  std::vector<ReplicationFailure> failures;

  double mean_online_per_file = 0.0;     ///< across-run mean
  /// Across-run standard error; exactly 0 when num_replications == 1
  /// (a single run has no across-run variance to estimate).
  double stderr_online_per_file = 0.0;
  double mean_download_per_file = 0.0;
  double stderr_download_per_file = 0.0;

  /// Across-run means of the per-class sample metrics (index 0 = class 1;
  /// classes that completed no users in a run are skipped for that run).
  std::vector<double> class_online_per_file;
  std::vector<double> class_download_per_file;
  std::vector<double> class_little_online;
  std::vector<double> class_little_download;
  std::vector<double> class_mean_final_rho;
};

/// Each run carries its own derived seed and writes to a pre-allocated
/// slot, so the summary is bitwise identical to a serial loop of
/// run_simulation calls at derive_seed(config.seed, r).
ReplicationSummary run_replications(const SimConfig& config,
                                    std::size_t num_replications);

}  // namespace btmf::sim
