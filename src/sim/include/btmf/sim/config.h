// Configuration of the flow-level discrete-event BitTorrent simulator.
//
// The simulator is the agent-level counterpart of the fluid models: peers
// arrive as a Poisson process, draw their file set from the binomial
// correlation model, and exchange service at the rates the fluid models
// assume (tit-for-tat returns eta x one's own upload; seed/virtual-seed
// bandwidth is pooled and shared in proportion to download capability).
// It validates the ODE predictions and — because it carries per-peer
// state — can evaluate the Adapt mechanism and cheating behaviour that a
// single-global-rho fluid model cannot express.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "btmf/fluid/demand.h"
#include "btmf/fluid/params.h"
#include "btmf/fluid/schemes.h"
#include "btmf/obs/sink.h"
#include "btmf/sim/faults.h"

namespace btmf::sim {

/// How seed + virtual-seed bandwidth is pooled under CMFSD.
enum class SeedPoolMode {
  /// One pool across all subtorrents, shared by every downloader — exactly
  /// the fluid model's assumption (the S^{i,j} denominator is the total
  /// downloader population of the whole torrent).
  kGlobal,
  /// Each virtual seed serves one *randomly chosen* completed subtorrent
  /// and real seeds split bandwidth across their files; a more literal
  /// reading of the protocol, used to probe the robustness of the fluid
  /// assumption. Demand-blind supply turns out to be unstable at small
  /// rho: per-subtorrent backlogs random-walk into congestion (see
  /// tests/sim/cmfsd_sim_test.cpp and the pool-mode ablation bench).
  kSubtorrentLocal,
  /// Like kSubtorrentLocal, but every donor re-targets its *currently
  /// most backlogged* completed subtorrent each rate epoch — a one-line
  /// protocol refinement that restores the demand feedback the global
  /// pool provides implicitly. Note it cannot rescue rho = 0: a donor
  /// never holds a complete copy of the file it is itself downloading,
  /// so a starved subtorrent full of rho = 0 peers is an absorbing
  /// convoy; with moderate rho (>~ 0.2) this mode matches the global
  /// pool almost exactly (see bench/pool_mode_ablation).
  kSubtorrentDemandAware,
};

/// The paper's Adapt mechanism (Sec. 4.3).
///
/// Every `period` time units an obedient multi-file peer that is currently
/// a partial seed compares the bandwidth it uploaded through its virtual
/// seed with the bandwidth it received from other peers' virtual seeds
/// (both averaged over the period) and forms Delta = uploaded - received.
/// If Delta stays above `phi_hi` for `consecutive` periods the peer
/// protects itself (rho += step_up); if Delta stays below `phi_lo` it
/// donates more (rho -= step_down). rho is clamped to [0, 1].
///
/// NOTE: the paper writes "increase when Delta > phi_1, decrease when
/// Delta < phi_2, with phi_1 <= phi_2", which makes the two regions
/// overlap. We read this as a typo and use a dead band instead:
/// phi_lo <= phi_hi, increase above phi_hi, decrease below phi_lo. The
/// paper's qualitative intent (self-protection when over-contributing,
/// generosity when under-contributing) is preserved.
struct AdaptConfig {
  bool enabled = false;
  double initial_rho = 0.0;  ///< the paper recommends starting at 0
  double period = 20.0;      ///< measurement window (one seeding residence)
  double phi_lo = -0.005;    ///< decrease rho when Delta < phi_lo (v2 rule)
  double phi_hi = 0.005;     ///< increase rho when Delta > phi_hi (v1 rule)
  double step_up = 0.1;      ///< v1
  double step_down = 0.1;    ///< v2
  unsigned consecutive = 2;  ///< periods the condition must hold in a row
};

struct SimConfig {
  unsigned num_files = 10;           ///< K
  double correlation = 0.5;          ///< p
  /// Optional per-file request probabilities (heterogeneous popularity,
  /// e.g. fluid::HeterogeneousCatalog::zipf_profile). Empty = every file
  /// uses `correlation`; otherwise must have exactly num_files entries.
  std::vector<double> file_probs{};
  double visit_rate = 2.0;           ///< lambda0 (indexing-server visits)
  /// Time shape of the visit rate (homogeneous Poisson by default). A
  /// non-homogeneous process is sampled by thinning against its peak
  /// rate; the homogeneous case draws exactly the same exponentials as
  /// before the demand model existed (bit-identity pinned by tests).
  fluid::ArrivalProcess arrival{};
  /// Heterogeneous bandwidth classes: each arriving user draws a class
  /// with probability proportional to weight; its upload runs at
  /// upload_scale * mu and its download is capped at download_cap
  /// (0 = unlimited, on top of download_bw). Empty = homogeneous.
  std::vector<fluid::BandwidthClass> bandwidth_classes{};
  fluid::FluidParams fluid{};        ///< mu, eta, gamma
  fluid::SchemeKind scheme = fluid::SchemeKind::kCmfsd;

  double rho = 0.0;                  ///< CMFSD bandwidth split (fixed mode)
  double cheater_fraction = 0.0;     ///< multi-file users pinning rho = 1
  AdaptConfig adapt{};               ///< per-peer rho controller
  SeedPoolMode seed_pool = SeedPoolMode::kGlobal;

  /// Per-user download bandwidth cap c (split 1/i per virtual peer under
  /// the concurrent schemes); infinity reproduces the paper's
  /// upload-constrained assumption. See fluid/extended.h for the c*
  /// threshold below which this cap binds.
  double download_bw = std::numeric_limits<double>::infinity();
  /// Abort rate theta: every download stage races an Exp(theta) clock;
  /// when it fires the peer abandons the download (MTCD: that virtual
  /// peer; the sequential schemes and MFCD: the whole user leaves).
  double abort_rate = 0.0;

  double file_size = 1.0;            ///< files are the fluid model's unit
  double horizon = 6000.0;           ///< simulated end time
  double warmup = 1500.0;            ///< statistics start here
  std::uint64_t seed = 42;
  std::size_t max_active_peers = 1'000'000;  ///< runaway guard (per shard)

  /// Torrent shards for the decomposed schemes (MTCD): the kernel state is
  /// partitioned per torrent into min(shards, num_files) independent
  /// shards that pause at the same rate-epoch ends. Results are
  /// bit-identical for ANY shards x kernel_threads configuration (see
  /// docs/SCALE.md); schemes whose dynamics do not decompose ignore the
  /// knob and run the serial kernel. A non-empty FaultPlan also forces
  /// one shard.
  unsigned shards = 1;
  /// Cap on the worker threads driving the shards (0 = no cap). A run
  /// fans the shards out once, over at most one worker per idle core
  /// (parallel::fan_out); 1, the default, runs them one after another.
  unsigned kernel_threads = 1;

  /// Declarative fault schedule (tracker outages, seed failure, churn
  /// bursts, bandwidth degradation). An empty plan is bit-identical to a
  /// run without the fault layer. See faults.h and docs/FAULTS.md.
  FaultPlan faults{};

  /// Telemetry sinks (metrics registry, time-series recorder, Chrome-trace
  /// writer — all optional, non-owning). A default sink records nothing
  /// and leaves the run bit-identical to an uninstrumented one; see
  /// docs/OBSERVABILITY.md. obs.sample_dt also sets the cadence of the
  /// SimResult population trajectories (0 = horizon / 512).
  obs::ObsSink obs{};

  /// Runs the paranoid invariant auditor after every dispatched event
  /// round (service-group integrals, indexed-heap cross-references, live
  /// list, policy pool recounts) and, in a sharded run, every shard's
  /// clock check at each epoch end; throws btmf::AuditError at the event
  /// that corrupted state. Expensive — meant for tests and debugging.
  /// Compiling with -DBTMF_PARANOID forces this on (auditor_enabled).
  bool paranoid = false;

  /// Request probability of file f under this configuration.
  [[nodiscard]] double file_probability(unsigned f) const {
    return file_probs.empty() ? correlation : file_probs[f];
  }

  /// Throws btmf::ConfigError on out-of-range values.
  void validate() const;
};

/// Whether a simulator runs its invariant auditor: `requested` (the
/// config's `paranoid` field), or always in a library compiled with
/// -DBTMF_PARANOID. The event kernel, the sharded kernel's epoch-end
/// clock audit and chunk-sim's slot auditor all decide here.
[[nodiscard]] bool auditor_enabled(bool requested);

}  // namespace btmf::sim
