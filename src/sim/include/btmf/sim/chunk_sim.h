// Chunk-level multi-file BitTorrent simulator (protocol substrate).
//
// The fluid models abstract the protocol into one number: the downloader
// sharing efficiency eta. The paper *argues* eta = 0.5 from the Izal et
// al. measurement (seeds contributed twice the downloader traffic) while
// Qiu–Srikant *prove* eta ~ 1 under uniform chunk possession. This
// simulator implements the actual mechanics the paper's Sec. 1 describes
// — files split into chunks, local-rarest-first piece selection,
// tit-for-tat reciprocation with periodic optimistic unchokes, seeds
// uploading altruistically — and measures eta as it emerges:
//
//     eta_hat = (chunk uploads/slot by downloaders) / E[downloaders]
//
// i.e. the realised fraction of downloader upload capacity that moves
// useful data (idle uploaders — nobody interested in their chunks — and
// duplicate-free constraints are what push eta below 1). The bench
// `emergent_eta` closes the loop: plugging eta_hat into the paper's
// closed form T = (gamma - mu)/(gamma mu eta_hat) must predict the
// download time this simulator measures.
//
// Beyond the single torrent, the substrate runs the paper's four
// multi-file downloading schemes on the real protocol (num_files = K,
// per-file piece bitmaps, per-arrival wanted sets drawn from the
// binomial correlation model):
//
//   MTCD   K separate torrents downloaded concurrently; each completed
//          file is seeded for its own Exp(gamma) residence.
//   MTSD   the wanted files are visited sequentially, each followed by
//          an Exp(gamma) seeding residence before the next download.
//   MFCD   one merged swarm: every held chunk of every wanted file is
//          offered, completion means the whole bundle.
//   CMFSD  one merged swarm downloaded subtorrent-by-subtorrent; a
//          downloader devotes each upload slot to tit-for-tat on its
//          current file with probability rho and donates it to its
//          already-completed files with probability 1 - rho.
//
// Piece selection is pluggable (PiecePolicy): local rarest-first, blind
// random, or rarest-first with probabilistic mode suppression after
// RFwPMS (arXiv 2211.00213) — with probability suppression_prob the
// modal tier (the pieces every rarest-first peer would herd onto this
// slot) is excluded, spreading a flash crowd across availability tiers.
// The `flash_crowd` knob injects that crowd: N class-K users at t = 0.
//
// Time is slotted at delta = 1/(mu * C) (each peer can ship exactly one
// chunk per slot); arrivals are Poisson(lambda) thinned per slot and
// seeds depart after Exp(gamma) residences, matching the fluid setup.
// With num_files = 1 every scheme reduces to the same single-torrent
// protocol and the engine draws exactly the variates the original K = 1
// substrate drew — results are bit-identical (see docs/PROTOCOL.md).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "btmf/fluid/demand.h"
#include "btmf/fluid/params.h"
#include "btmf/fluid/schemes.h"
#include "btmf/obs/sink.h"

namespace btmf::sim {

/// Piece-selection policy for the chunk substrate (docs/PROTOCOL.md).
enum class PiecePolicy : std::uint8_t {
  kRarestFirst = 0,       ///< local rarest-first, random rotation tie-break
  kRandom = 1,            ///< uniform over the candidate set
  kModeSuppression = 2,   ///< rarest-first + probabilistic mode suppression
};

[[nodiscard]] const char* to_string(PiecePolicy policy);
/// Parses "rarest-first" | "random" | "mode-suppression"; throws
/// btmf::ConfigError on anything else.
[[nodiscard]] PiecePolicy piece_policy_from_string(std::string_view name);

struct ChunkSimConfig {
  unsigned num_files = 1;       ///< K files (1..32; bitmask-sized)
  unsigned num_chunks = 32;     ///< C chunks per file
  /// User entry rate: users wanting at least one file. At K = 1 this is
  /// the torrent arrival rate; at K > 1 each arrival draws its wanted
  /// set from the correlation model conditioned on being non-empty.
  double entry_rate = 1.0;
  /// Time-varying arrival modulation of entry_rate: the per-slot Poisson
  /// expectation is arrival.rate_at(entry_rate, t) * slot_dt (exactly
  /// entry_rate for the homogeneous default — same variates, bit-identical
  /// runs).
  fluid::ArrivalProcess arrival{};
  /// Heterogeneous peer bandwidth (empty = homogeneous). Each arrival
  /// draws a class by weight; a class-b peer earns upload_scale_b upload
  /// turns per slot (token bucket, whole turns spent) and receives at
  /// most download_cap_b (0 = uncapped) worth of chunks per slot.
  /// Publisher seeds stay at the base rate.
  std::vector<fluid::BandwidthClass> bandwidth_classes{};
  double correlation = 1.0;     ///< p, per-file want probability (K > 1)
  fluid::FluidParams fluid{};   ///< mu (upload), gamma (seed departure)
  fluid::SchemeKind scheme = fluid::SchemeKind::kMtcd;
  /// CMFSD only: probability an upload slot goes to tit-for-tat on the
  /// current file rather than donation to completed files (the paper's
  /// bandwidth split P(i, j) = rho off the first file/stage).
  double rho = 0.0;
  PiecePolicy policy = PiecePolicy::kRarestFirst;
  /// kModeSuppression only: probability the modal availability tier is
  /// suppressed for one pick.
  double suppression_prob = 0.9;
  /// Probability that an uploading downloader ignores its TFT ranking
  /// and serves a random interested peer (optimistic unchoke).
  double optimistic_prob = 0.25;
  /// Exponential decay applied to TFT credit each slot (memory ~ 1/(1-d)).
  double credit_decay = 0.9;
  /// Number of seeds planted at t = 0 so the first chunks exist.
  unsigned initial_seeds = 2;
  /// Flash-crowd burst: this many class-K users (wanting every file)
  /// injected at t = 0 on top of the Poisson arrivals.
  unsigned flash_crowd = 0;
  double horizon = 4000.0;
  double warmup = 1000.0;
  std::uint64_t seed = 42;
  std::size_t max_peers = 200'000;
  /// Runs the invariant auditor at the end of every slot and throws
  /// btmf::AuditError at the first violation: the availability census
  /// against the offered bitmaps, TFT credit conservation, donated
  /// uploads counted once, the per-file eta denominators against the
  /// scheme's split, and every cached copy of a peer's state against the
  /// peer (docs/PROTOCOL.md). Draws no randomness: audited runs are
  /// bit-identical. Compiling with -DBTMF_PARANOID forces this on.
  bool paranoid = false;

  /// Telemetry sinks (all optional; see docs/OBSERVABILITY.md). The
  /// recorder samples chunk.downloaders / chunk.seeds / chunk.availability
  /// every obs.sample_dt (0 = horizon / 512) — plus per-file
  /// chunk.file_<k>.{downloaders,seeds,availability} when K > 1; the
  /// tracer gets batched "chunk.slots" spans of obs.trace_batch slots.
  obs::ObsSink obs{};

  void validate() const;
};

/// Per-file (per-torrent) measurements at K > 1.
struct ChunkFileResult {
  /// Realised sharing efficiency of this torrent: TFT chunk uploads of
  /// this file per slot, divided by the time-averaged downloader
  /// bandwidth share pointed at it (each active downloader contributes
  /// 1/l when concurrently downloading l files).
  double emergent_eta = 0.0;
  double avg_downloaders = 0.0;  ///< time-averaged x_f
  double avg_seeds = 0.0;        ///< time-averaged peers offering the full file
  std::size_t completions = 0;   ///< sampled per-file completions
  /// Mean per-file download duration: arrival (concurrent schemes) or
  /// stage start (sequential schemes) to the file's completion.
  double mean_download_time = 0.0;
};

/// Per-class (class i = users wanting i files) user measurements.
struct ChunkClassResult {
  std::size_t completed_users = 0;
  double mean_download_time = 0.0;  ///< total time spent downloading
  double mean_online_time = 0.0;    ///< arrival to final departure
};

struct ChunkSimResult {
  std::size_t completed_peers = 0;    ///< sampled user completions
  double mean_download_time = 0.0;    ///< per-user total download time
  double ci_download_time = 0.0;      ///< 95% half-width
  double mean_online_time = 0.0;      ///< per-user arrival-to-departure

  double avg_downloaders = 0.0;       ///< time-averaged x
  double avg_seeds = 0.0;             ///< time-averaged y
  double peak_downloaders = 0.0;      ///< max x over the whole run

  double emergent_eta = 0.0;          ///< eta_hat defined above
  double downloader_upload_share = 0.0;  ///< fraction of chunks from dls
  double seed_upload_share = 0.0;
  double idle_fraction = 0.0;  ///< uploader-slots with nothing useful to send

  /// The paper's closed form evaluated at the measured eta_hat:
  /// (gamma - mu)/(gamma mu eta_hat) — compare with mean_download_time.
  /// (The K = 1 single-torrent form; at K > 1 compare through the model
  /// layer's scheme formulas instead.)
  double fluid_prediction = 0.0;

  /// Arrival-weighted per-file averages over sampled users (the paper's
  /// headline estimator: total time / total files wanted).
  double avg_download_per_file = 0.0;
  double avg_online_per_file = 0.0;

  std::vector<ChunkFileResult> files;     ///< size K
  std::vector<ChunkClassResult> classes;  ///< size K, class i at [i-1]
};

/// Runs one replication of the chunk-level swarm.
ChunkSimResult run_chunk_sim(const ChunkSimConfig& config);

}  // namespace btmf::sim
