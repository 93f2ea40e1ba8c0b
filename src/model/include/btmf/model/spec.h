// The one scenario description every evaluator understands.
//
// A ScenarioSpec is the typed union of everything the repository's
// evaluators consume: the paper's scenario (K, p, lambda0, fluid
// parameters), the downloading scheme and its rho knob(s), the fluid
// solver settings, and the stochastic-run knobs (horizon, seed, cheaters,
// Adapt, fault plan, chunking). Each backend reads the subset it
// understands and declares — via Backend::capabilities() — which fields it
// refuses; nothing is silently ignored that could change a result.
//
// The spec carries one *canonical fingerprint*: every field that can move
// any backend's output is folded in with exact round-trip doubles, so
// keying a cache on (backend name, fingerprint) makes stale hits
// impossible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "btmf/fluid/correlation.h"
#include "btmf/fluid/demand.h"
#include "btmf/fluid/params.h"
#include "btmf/fluid/schemes.h"
#include "btmf/obs/trace.h"
#include "btmf/sim/chunk_sim.h"
#include "btmf/sim/config.h"
#include "btmf/sim/faults.h"

namespace btmf::model {

/// The fluid solver settings a result can depend on: the tolerances and
/// step budget of fluid-transient's integrators, the three values
/// robust::escalate_spec tightens on retry. fluid-equilibrium reads none
/// of them; CMFSD's steady state is a scalar root with a fixed residual
/// check.
struct SolverSettings {
  double rtol = 1e-9;
  double atol = 1e-12;
  std::size_t max_steps = 1'000'000;
  /// Optional Chrome-trace writer (non-owning, null = inert) that
  /// fluid-transient hands to both of its integrators. Not fingerprinted:
  /// tracing moves no result.
  obs::TraceWriter* trace = nullptr;
};

struct ScenarioSpec {
  // --- scenario: the paper's Sec. 4 inputs -------------------------------
  unsigned num_files = 10;            ///< K, from 1 to kMaxFiles
  /// The most files a scenario may hold. The fluid backends size their
  /// state from K before the first step (CMFSD holds K(K+3)/2 states),
  /// so K = 100000 would ask for tens of GB. The bound is about twice
  /// the largest K any caller uses (33).
  static constexpr unsigned kMaxFiles = 64;
  double correlation = 0.5;           ///< p
  double visit_rate = 1.0;            ///< lambda0
  fluid::FluidParams fluid{};         ///< mu, eta, gamma

  // --- demand model ------------------------------------------------------
  /// Time shape of the visit rate: homogeneous Poisson by default, or a
  /// diurnal sinusoid / flash-crowd pulse train modulating visit_rate
  /// (see btmf/fluid/demand.h). Fingerprinted only when non-homogeneous,
  /// so every pre-existing spec keeps its exact cache key.
  fluid::ArrivalProcess arrival{};
  /// Heterogeneous bandwidth classes (weight, upload scale, download cap).
  /// Empty = one homogeneous class at the fluid parameters; fingerprinted
  /// only when non-empty.
  std::vector<fluid::BandwidthClass> bandwidth_classes;
  /// Replications averaged by the stochastic-epidemic backend (its
  /// CTMC sample paths are noisy at small populations), from 1 to
  /// kMaxEpidemicReplications. Fingerprinted only when not the default
  /// so existing keys are untouched.
  unsigned epidemic_replications = 8;
  /// The most replications a spec may ask for. The backend allocates one
  /// row of per-class averages per replication before the first one
  /// runs: 51 MB at K = kMaxFiles. The bound is 166 times the largest
  /// count any caller uses (600).
  static constexpr unsigned kMaxEpidemicReplications = 100'000;

  // --- scheme ------------------------------------------------------------
  fluid::SchemeKind scheme = fluid::SchemeKind::kCmfsd;
  double rho = 0.0;                   ///< CMFSD bandwidth split
  /// Optional per-class rho for CMFSD (overrides `rho` when non-empty).
  std::vector<double> rho_per_class;

  // --- fluid backends ----------------------------------------------------
  SolverSettings solver{};
  /// Uniform sample count of the fluid-transient trajectory (incl. t = 0),
  /// from 2 to kMaxTransientSamples.
  std::size_t transient_samples = 200;
  /// The most samples a trajectory may hold. Every sample is one state
  /// vector, allocated before the first step, so the count sizes memory
  /// up front: 10^7 samples of K = 20 CMFSD (230 states) would ask for
  /// about 18 GB. The bound is 50 times the default and 5 times the
  /// largest count any caller uses.
  static constexpr std::size_t kMaxTransientSamples = 10'000;

  // --- stochastic backends (kernel-sim, chunk-sim) -----------------------
  double horizon = 6000.0;            ///< simulated end time / ODE t_end
  double warmup = 1500.0;             ///< statistics start here
  std::uint64_t seed = 42;
  double cheater_fraction = 0.0;      ///< multi-file users pinning rho = 1
  double abort_rate = 0.0;            ///< downloader abort rate theta
  sim::AdaptConfig adapt{};           ///< per-peer rho controller
  sim::FaultPlan faults{};            ///< declarative fault schedule

  // --- chunk-sim ---------------------------------------------------------
  unsigned num_chunks = 32;           ///< chunks per file
  /// Piece-selection policy of the chunk-level substrate (ignored by the
  /// fluid and kernel backends, which do not model pieces — but only the
  /// default passes their capability gate; see docs/PROTOCOL.md).
  sim::PiecePolicy chunk_policy = sim::PiecePolicy::kRarestFirst;
  /// Mode-suppression probability (used when chunk_policy is
  /// kModeSuppression; fingerprinted regardless).
  double chunk_suppression = 0.9;

  // --- kernel-sim execution (NOT part of the fingerprint) ----------------
  /// Torrent shards and worker threads for the sharded kernel. Results
  /// are bit-identical across every shards x kernel_threads configuration
  /// (the determinism contract in docs/SCALE.md), so these knobs are
  /// deliberately EXCLUDED from fingerprint(): a cached result computed
  /// at any sharding is valid for all of them.
  unsigned shards = 1;
  unsigned kernel_threads = 1;  ///< cap on shard workers; 0 = no cap

  /// Throws btmf::ConfigError on out-of-range values (scenario ranges,
  /// rho/cheaters/theta in [0, 1], warmup < horizon, fault plan).
  void validate() const;

  /// Canonical, whitespace-free "key=value;..." description with exact
  /// round-trip doubles. Covers EVERY field above — editing any knob
  /// (including a single fault-plan entry or an Adapt threshold) changes
  /// the fingerprint, so content-addressed caches can never serve stale
  /// results. Backend identity is NOT included; cache keys prepend the
  /// backend name (see docs/SWEEP.md).
  [[nodiscard]] std::string fingerprint() const;

  [[nodiscard]] fluid::CorrelationModel correlation_model() const {
    return fluid::CorrelationModel(num_files, correlation, visit_rate);
  }
};

/// Maps the spec onto the event-kernel simulator's configuration (the
/// kernel-sim backend uses this; btmf_tool reuses it so telemetry sinks
/// can be attached to the exact same run the backend would perform).
/// Fields the spec does not model (seed-pool mode, download bandwidth
/// caps, per-file popularity profiles) keep their SimConfig defaults.
[[nodiscard]] sim::SimConfig sim_config_from_spec(const ScenarioSpec& spec);

}  // namespace btmf::model
