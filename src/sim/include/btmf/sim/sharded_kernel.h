// ShardedKernel: deterministic parallel driver for torrent-decomposed
// schemes.
//
// A shardable policy (SchemePolicy::shardable) has no state coupling
// between torrents beyond the shared arrival process, so the simulation
// splits into min(cfg.shards, num_files) independent EventKernel
// instances — shard s owns the torrents f with f % S == s. Every shard
// replays the identical arrival stream from cfg.seed and takes slot-level
// randomness from counter streams keyed by (admission seq, file id), so
// the union of the shards' event histories is the same set of events for
// ANY shard count, and merging their ShardOutputs (summing per-torrent
// population integrals in ascending torrent order, folding per-user
// closures by admission seq) yields a SimResult that is bit-identical
// across every shards x kernel_threads configuration. See docs/SCALE.md
// for the contract and its proof obligations.
//
// A run is one parallel::fan_out over the shards, capped at
// kernel_threads (0 = no cap), so the shards run on at most one worker
// per idle core and a sharded run inside a busy sweep runs them
// serially. Each index steps its shard through kEpochs pause points
// (run_until on each horizon/kEpochs boundary), audits the shard's clock
// there when the auditor is on, and traces each epoch's end. Shards
// share no mutable state, so none waits for another: the pause points
// exist for observability (epoch-wise progress, the paranoid clock
// check) and correctness never depends on them. The barrier-wait gauge
// is S x slowest shard - sum of shard times over the run.
//
// Non-shardable policies and runs with an active FaultPlan fall back to
// a single kernel: the fault layer's churn/outage machinery is global by
// nature. A shardable policy still runs in decomposed mode then (S = 1),
// exercising the same code path the parallel run uses.
#pragma once

#include <functional>
#include <memory>

#include "btmf/sim/event_kernel.h"

namespace btmf::sim {

/// Builds one fresh policy instance per call; each shard kernel owns its
/// own instance (policies hold per-kernel pool bookkeeping).
using PolicyFactory = std::function<std::unique_ptr<SchemePolicy>()>;

class ShardedKernel {
 public:
  /// Rate epochs per run; horizon * e / kEpochs are every shard's pause
  /// points. Fixed so the schedule never depends on runtime conditions
  /// (a determinism requirement for the paranoid clock audit).
  static constexpr unsigned kEpochs = 16;

  ShardedKernel(const SimConfig& config, PolicyFactory factory);

  /// Runs the simulation and merges the shards; call exactly once.
  SimResult run();

 private:
  SimResult merge(std::vector<ShardOutput> outs, SchemePolicy& policy,
                  unsigned num_shards, double barrier_wait_s);

  SimConfig cfg_;
  PolicyFactory factory_;
};

}  // namespace btmf::sim
