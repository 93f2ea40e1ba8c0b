// The chunk-level protocol engine.
//
// One slot = one potential chunk upload per peer (per upload session for
// the separate-torrent schemes, where a multi-torrent seed gives each of
// its torrents a full mu like the fluid's per-torrent seed populations).
// The K = 1 path is draw-for-draw identical to the original single-
// torrent substrate: every multi-file branch (wanted-set sampling, visit
// -order shuffles, torrent choice, CMFSD donation coins) is gated so it
// consumes randomness only when a genuine multi-file choice exists. The
// bit-identity tests in tests/sim/chunk_sim_test.cpp (K = 1) and
// tests/sim/chunk_golden_test.cpp (K > 1) pin this contract.
//
// State is split by temperature. Upload sessions read only flat arrays:
// the per-slot interest index (who could receive what, as bitmasks over
// the lists a session scans, with each entry's bitmap words alongside), a
// HotPeer row per peer id (cached accepts mask, receive tokens, arena row,
// index positions) and the PieceArena's bitmap words. Everything else
// about a peer lives in its cold Peer record, from which the paranoid
// auditor re-derives every cached value and rebuilds the index.
#include "btmf/sim/chunk_sim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "btmf/math/stats.h"
#include "btmf/sim/config.h"
#include "btmf/sim/rng.h"
#include "btmf/util/check.h"
#include "btmf/util/error.h"

namespace btmf::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// The interest-index position of a peer that is in no list this slot.
constexpr std::uint32_t kUnlisted = ~std::uint32_t{0};
/// Credit below this after a slot's decay is forgotten.
constexpr double kCreditFloor = 0.01;

/// Every peer's piece bitmaps in one contiguous word arena. A row holds
/// one peer's bitmap for each file (`words_` 64-bit words per file) and a
/// held-chunk count per file; the rows of departed peers are zeroed and
/// recycled, so the arena is as large as the peak live population.
class PieceArena {
 public:
  PieceArena(unsigned files, unsigned chunks)
      : files_(files), chunks_(chunks), words_((chunks + 63) / 64) {}

  /// A row with every bitmap empty.
  [[nodiscard]] std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t row = free_.back();
      free_.pop_back();
      return row;
    }
    const std::uint32_t row = rows();
    bits_.resize(bits_.size() + static_cast<std::size_t>(files_) * words_, 0);
    held_.resize(held_.size() + files_, 0);
    return row;
  }

  /// Returns a row to the free list, emptied.
  void release(std::uint32_t row) {
    std::fill_n(&bits_[offset(row, 0)],
                static_cast<std::size_t>(files_) * words_, std::uint64_t{0});
    std::fill_n(&held_[slot(row, 0)], files_, 0u);
    free_.push_back(row);
  }

  /// Adds a chunk the row does not hold yet.
  void set(std::uint32_t row, unsigned f, unsigned chunk) {
    bits_[offset(row, f) + chunk / 64] |= std::uint64_t{1} << (chunk % 64);
    ++held_[slot(row, f)];
  }

  /// Gives an empty file f of the row every chunk.
  void fill(std::uint32_t row, unsigned f) {
    for (unsigned c = 0; c < chunks_; ++c) set(row, f, c);
  }

  [[nodiscard]] unsigned held(std::uint32_t row, unsigned f) const {
    return held_[slot(row, f)];
  }
  [[nodiscard]] bool full(std::uint32_t row, unsigned f) const {
    return held(row, f) == chunks_;
  }

  /// True if row `u` holds any chunk of file f that row `v` lacks.
  [[nodiscard]] bool offers(std::uint32_t u, std::uint32_t v,
                            unsigned f) const {
    const std::uint64_t* have = &bits_[offset(u, f)];
    const std::uint64_t* other = &bits_[offset(v, f)];
    for (unsigned w = 0; w < words_; ++w) {
      if ((have[w] & ~other[w]) != 0) return true;
    }
    return false;
  }

  /// Appends f * C + c, ascending, for every chunk c of file f that row
  /// `u` holds and row `v` lacks.
  void append_missing(std::uint32_t u, std::uint32_t v, unsigned f,
                      std::vector<unsigned>& out) const {
    const std::uint64_t* have = &bits_[offset(u, f)];
    const std::uint64_t* other = &bits_[offset(v, f)];
    for (unsigned w = 0; w < words_; ++w) {
      std::uint64_t m = have[w] & ~other[w];
      while (m != 0) {
        out.push_back(f * chunks_ + w * 64 +
                      static_cast<unsigned>(std::countr_zero(m)));
        m &= m - 1;
      }
    }
  }

  /// Row `row`'s bitmap of file f: words_per_file() words.
  [[nodiscard]] const std::uint64_t* bitmap(std::uint32_t row,
                                            unsigned f) const {
    return &bits_[offset(row, f)];
  }
  [[nodiscard]] unsigned words_per_file() const { return words_; }

  /// Calls fn(c) for every chunk c of file f that row `row` holds.
  template <typename Fn>
  void for_each_held(std::uint32_t row, unsigned f, Fn&& fn) const {
    const std::uint64_t* have = &bits_[offset(row, f)];
    for (unsigned w = 0; w < words_; ++w) {
      std::uint64_t m = have[w];
      while (m != 0) {
        fn(w * 64 + static_cast<unsigned>(std::countr_zero(m)));
        m &= m - 1;
      }
    }
  }

  [[nodiscard]] std::uint32_t rows() const {
    return static_cast<std::uint32_t>(held_.size() / files_);
  }

 private:
  /// Index of (row, file f) in held_; its bitmap starts at words_ times
  /// that in bits_.
  [[nodiscard]] std::size_t slot(std::uint32_t row, unsigned f) const {
    return static_cast<std::size_t>(row) * files_ + f;
  }
  [[nodiscard]] std::size_t offset(std::uint32_t row, unsigned f) const {
    return slot(row, f) * words_;
  }

  unsigned files_;
  unsigned chunks_;
  unsigned words_;
  std::vector<std::uint64_t> bits_;
  std::vector<unsigned> held_;
  std::vector<std::uint32_t> free_;
};

/// One TFT ledger entry: decayed chunks recently received from `sender`.
struct Credit {
  std::size_t sender;
  double amount;
};

/// A peer's hot fields, indexed by peer id: what deliveries, the index
/// build and the TFT ranking read.
struct HotPeer {
  double tokens = kInf;       ///< receive tokens (1 token = 1 chunk)
  std::uint32_t accepts = 0;  ///< cached accepts(peer), see run_chunk_sim
  std::uint32_t row = 0;      ///< PieceArena row of its bitmaps
  /// Interest-index positions this slot: the flat position in its file
  /// list and the position in the all-downloader list, or kUnlisted.
  std::uint32_t fpos = kUnlisted;
  std::uint32_t apos = kUnlisted;
};

/// The per-slot interest index: every list an upload session scans, as
/// bitmasks over list positions, with each entry's bitmap words stored
/// contiguously (docs/PROTOCOL.md, "The interest index"). Built at the top
/// of each slot and kept current by every delivery and file completion.
struct InterestIndex {
  // Per-file lists (MTCD, MTSD and CMFSD sessions). Each downloader sits
  // in exactly one: file f's entries fill flat positions [begin[f],
  // begin[f] + count[f]) in live order, with begin[f] a multiple of 64 so
  // that every list's mask starts on a word.
  std::vector<std::size_t> begin, count;
  std::vector<std::size_t> file_ids;      ///< peer id per flat position
  /// Bit p: entry p has a receive token left and still accepts its file.
  std::vector<std::uint64_t> file_ok;
  /// The entry's bitmap of its list's file, bitmap-words per entry.
  std::vector<std::uint64_t> file_words;

  // The all-downloader list (MFCD and CMFSD sessions), in down_all order.
  std::size_t mask_words = 0;  ///< words per all-list mask
  /// Mask f (at f * mask_words): entry i has a receive token left and
  /// accepts file f.
  std::vector<std::uint64_t> all_ok;
  /// MFCD only, file-major: entry i's bitmap of file f at (f * n + i).
  std::vector<std::uint64_t> all_words;
};

constexpr std::uint64_t bit_at(std::size_t i) {
  return std::uint64_t{1} << (i % 64);
}

/// Sets (or ORs in) bit i of `out` for every entry i < n that is `ok` and
/// lacks a chunk `have` holds, from its `words` words at entry * words:
/// the TFT interest test, branch-free over a contiguous run of entries.
void mark_offered(const std::uint64_t* have, const std::uint64_t* entries,
                  unsigned words, const std::uint64_t* ok, std::size_t n,
                  std::uint64_t* out, bool accumulate) {
  for (std::size_t j = 0; j * 64 < n; ++j) {
    const std::size_t run = std::min<std::size_t>(64, n - j * 64);
    const std::uint64_t* e = entries + j * 64 * words;
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < run; ++b, e += words) {
      std::uint64_t lack = 0;
      for (unsigned w = 0; w < words; ++w) lack |= have[w] & ~e[w];
      bits |= std::uint64_t{lack != 0} << b;
    }
    bits &= ok[j];
    out[j] = accumulate ? out[j] | bits : bits;
  }
}

/// Position of the k-th (from 0) set bit of an n-bit mask with more than
/// k set bits.
std::size_t nth_set_bit(const std::uint64_t* mask, std::size_t n,
                        std::size_t k) {
  std::size_t j = 0;
  if (n > 64) {
    for (;; ++j) {
      const auto ones = static_cast<std::size_t>(std::popcount(mask[j]));
      if (k < ones) break;
      k -= ones;
    }
  }
  std::uint64_t m = mask[j];
  for (; k > 0; --k) m &= m - 1;
  return j * 64 + static_cast<std::size_t>(std::countr_zero(m));
}

/// A peer's cold state. Peer ids (indices into the peer vector) are never
/// reused, so a departed sender's ledger entries cannot alias a newcomer.
struct Peer {
  explicit Peer(std::uint32_t wanted_mask)
      : wanted(wanted_mask), counted(wanted_mask) {}

  std::uint32_t wanted = 0;    ///< files this user downloads
  std::uint32_t done = 0;      ///< completed files
  /// Files whose held chunks are reflected in `avail` (i.e. still offered
  /// to the swarm); cleared per file on withdrawal, wholesale on removal.
  std::uint32_t counted = 0;
  bool is_seed = false;        ///< every wanted file complete
  bool permanent = false;      ///< publisher seed, never departs
  bool sampled = false;
  bool seeding_phase = false;  ///< MTSD: seeding between sequential files
  unsigned stage = 0;          ///< sequential schemes: index into `order`
  double arrival = 0.0;
  double stage_start = 0.0;    ///< current file's download start
  double download_accum = 0.0; ///< MTSD: summed downloading-phase time
  double seed_until = kInf;    ///< MTSD: inter-file seeding deadline
  double depart = kInf;        ///< final removal time, once known
  std::vector<std::uint8_t> order;       ///< sequential visit order
  std::vector<double> file_seed_depart;  ///< MTCD per-torrent deadlines
  /// TFT credit by sender, at most one entry each, none below
  /// kCreditFloor after a slot's decay.
  std::vector<Credit> ledger;
  // Bandwidth-class state (inert under the homogeneous default).
  std::uint8_t bclass = 0;     ///< index into config.bandwidth_classes
  double up_credit = 0.0;      ///< fractional upload turns banked
};

}  // namespace

const char* to_string(PiecePolicy policy) {
  switch (policy) {
    case PiecePolicy::kRarestFirst:
      return "rarest-first";
    case PiecePolicy::kRandom:
      return "random";
    case PiecePolicy::kModeSuppression:
      return "mode-suppression";
  }
  return "?";
}

PiecePolicy piece_policy_from_string(std::string_view name) {
  if (name == "rarest-first") return PiecePolicy::kRarestFirst;
  if (name == "random") return PiecePolicy::kRandom;
  if (name == "mode-suppression") return PiecePolicy::kModeSuppression;
  throw ConfigError("unknown piece policy '" + std::string(name) +
                    "' (expected rarest-first|random|mode-suppression)");
}

void ChunkSimConfig::validate() const {
  BTMF_CHECK_MSG(num_files >= 1 && num_files <= 32,
                 "num_files must lie in [1, 32]");
  BTMF_CHECK_MSG(num_chunks >= 1 && num_chunks <= 4096,
                 "num_chunks must lie in [1, 4096]");
  BTMF_CHECK_MSG(entry_rate > 0.0, "entry_rate must be positive");
  arrival.validate();
  fluid::validate_classes(bandwidth_classes);
  BTMF_CHECK_MSG(correlation > 0.0 && correlation <= 1.0,
                 "correlation must lie in (0, 1]");
  fluid.validate();
  BTMF_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "rho must lie in [0, 1]");
  BTMF_CHECK_MSG(suppression_prob >= 0.0 && suppression_prob <= 1.0,
                 "suppression_prob must lie in [0, 1]");
  BTMF_CHECK_MSG(optimistic_prob >= 0.0 && optimistic_prob <= 1.0,
                 "optimistic_prob must lie in [0, 1]");
  BTMF_CHECK_MSG(credit_decay >= 0.0 && credit_decay < 1.0,
                 "credit_decay must lie in [0, 1)");
  BTMF_CHECK_MSG(initial_seeds >= 1,
                 "need at least one publisher seed to bootstrap");
  BTMF_CHECK_MSG(horizon > 0.0 && warmup >= 0.0 && warmup < horizon,
                 "need 0 <= warmup < horizon");
  obs.validate();
}

ChunkSimResult run_chunk_sim(const ChunkSimConfig& config) {
  config.validate();
  const bool paranoid = auditor_enabled(config.paranoid);
  const unsigned files = config.num_files;
  const unsigned chunks = config.num_chunks;
  const fluid::SchemeKind scheme = config.scheme;
  const bool sequential = scheme == fluid::SchemeKind::kMtsd ||
                          scheme == fluid::SchemeKind::kCmfsd;
  // The lists upload sessions scan, which the interest index covers:
  // per-file lists under MTCD, MTSD and CMFSD, and the all-downloader
  // list under MFCD and CMFSD. Only MFCD's TFT sessions test bitmaps
  // against the latter, so only MFCD stores its words.
  const bool file_lists = scheme != fluid::SchemeKind::kMfcd;
  const bool all_list = scheme == fluid::SchemeKind::kMfcd ||
                        scheme == fluid::SchemeKind::kCmfsd;
  const bool all_words = scheme == fluid::SchemeKind::kMfcd;
  const std::uint32_t full_mask =
      files == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << files) - 1;
  // One chunk per peer per slot: slot length so that a full file takes
  // 1/mu time units of dedicated upload.
  const double slot_dt = 1.0 / (config.fluid.mu * chunks);

  // Bandwidth classes, mapped to slot units: one upload turn per slot is
  // rate mu, so a class earns upload_scale turns per slot (token bucket,
  // whole turns spent); a download cap c is c/mu receive tokens per slot,
  // with the bucket sized max(1, rate) so sub-chunk-per-slot rates bank
  // fractional credit instead of starving. Everything is inert under the
  // homogeneous default (no class draw, gates never bind).
  const bool have_classes = !config.bandwidth_classes.empty();
  std::vector<double> class_turns, class_tokens, class_bucket;
  double class_weight_total = 0.0;
  for (const fluid::BandwidthClass& cls : config.bandwidth_classes) {
    class_turns.push_back(cls.upload_scale);
    const double tokens =
        cls.download_cap > 0.0 ? cls.download_cap / config.fluid.mu : kInf;
    class_tokens.push_back(tokens);
    class_bucket.push_back(std::max(1.0, tokens));
    class_weight_total += cls.weight;
  }

  RandomStream rng(config.seed);
  // Per peer id: cold record, hot view.
  std::vector<Peer> peers;
  std::vector<HotPeer> hot;
  PieceArena arena(files, chunks);
  const unsigned bitmap_words = arena.words_per_file();
  std::vector<std::size_t> live;
  // Live copies per chunk, all files flattened: chunk c of file f is
  // avail[f * chunks + c]. Rarest-first reads these counts.
  std::vector<unsigned> avail(static_cast<std::size_t>(files) * chunks, 0);

  const auto file_bit = [](unsigned f) { return std::uint32_t{1} << f; };

  /// Which files `p` is actively downloading right now (0 for seeds, for
  /// MTSD peers in an inter-file seeding residence, and for nobody else).
  /// Sessions read the copy cached in HotPeer::accepts, which the per-slot
  /// index build and on_file_complete refresh: between the two, nothing
  /// else changes its inputs.
  const auto accepts = [&](const Peer& p) -> std::uint32_t {
    if (p.is_seed) return 0;
    switch (scheme) {
      case fluid::SchemeKind::kMtcd:
      case fluid::SchemeKind::kMfcd:
        return p.wanted & ~p.done;
      case fluid::SchemeKind::kMtsd:
        return p.seeding_phase ? 0u : file_bit(p.order[p.stage]);
      case fluid::SchemeKind::kCmfsd:
        return file_bit(p.order[p.stage]);
    }
    return 0;
  };

  /// Stops offering file `f`: its copies leave the availability census.
  const auto withdraw = [&](std::size_t id, unsigned f) {
    Peer& p = peers[id];
    if (!((p.counted >> f) & 1u)) return;
    unsigned* file_avail = &avail[static_cast<std::size_t>(f) * chunks];
    arena.for_each_held(hot[id].row, f, [&](unsigned c) { --file_avail[c]; });
    p.counted &= ~file_bit(f);
  };

  const auto add_peer = [&](std::uint32_t wanted_mask) {
    peers.emplace_back(wanted_mask);
    hot.push_back({kInf, 0u, arena.acquire()});
    live.push_back(peers.size() - 1);
    return peers.size() - 1;
  };

  const auto spawn_peer = [&](std::uint32_t wanted_mask, double at,
                              bool sampled_flag) {
    const std::size_t id = add_peer(wanted_mask);
    Peer& p = peers[id];
    p.arrival = at;
    p.stage_start = at;
    p.sampled = sampled_flag;
    for (unsigned f = 0; f < files; ++f) {
      if ((wanted_mask >> f) & 1u) {
        p.order.push_back(static_cast<std::uint8_t>(f));
      }
    }
    // Sequential schemes visit the wanted files in a random per-user
    // order so no file is systematically first. Single-file users (and
    // every user at K = 1) draw nothing.
    if (sequential && p.order.size() > 1) rng.shuffle(p.order);
    if (have_classes) {
      // Weighted class draw, same walk as the event kernel's.
      double pick = rng.uniform() * class_weight_total;
      std::size_t b = 0;
      while (b + 1 < class_turns.size()) {
        pick -= config.bandwidth_classes[b].weight;
        if (pick < 0.0) break;
        ++b;
      }
      p.bclass = static_cast<std::uint8_t>(b);
      hot[id].tokens = class_bucket[b];
    }
    if (scheme == fluid::SchemeKind::kMtcd) {
      p.file_seed_depart.assign(files, kInf);
    }
  };

  // Publisher seeds.
  for (unsigned s = 0; s < config.initial_seeds; ++s) {
    const std::size_t id = add_peer(full_mask);
    Peer& p = peers[id];
    for (unsigned f = 0; f < files; ++f) arena.fill(hot[id].row, f);
    p.done = full_mask;
    p.is_seed = true;
    p.permanent = true;
    for (unsigned& a : avail) ++a;
  }

  // Flash crowd: class-K users (wanting every file) injected at t = 0 on
  // top of the Poisson process. Default 0 — the knob exists to probe the
  // RFwPMS instability claim (bench/perf_chunk).
  for (unsigned n = 0; n < config.flash_crowd; ++n) {
    spawn_peer(full_mask, 0.0, config.warmup <= 0.0);
  }

  math::RunningStats download_time, online_time;
  math::TimeAverage downloaders_avg, seeds_avg;
  double downloader_uploads = 0.0;
  double seed_uploads = 0.0;
  double donated_uploads = 0.0;
  double idle_uploader_slots = 0.0;
  double uploader_slots = 0.0;
  double peak_downloaders = 0.0;

  // Per-file accumulators (eta_f = tft_uploads_f / bandwidth_share_f).
  std::vector<double> file_tft_uploads(files, 0.0);
  std::vector<double> file_share(files, 0.0);       // sum of 1/l per slot
  std::vector<double> file_downloaders(files, 0.0); // sum of x_f per slot
  std::vector<double> file_seeders(files, 0.0);     // sum of s_f per slot
  std::vector<math::RunningStats> file_download(files);
  std::vector<math::RunningStats> class_download(files), class_online(files);
  double sampled_download_sum = 0.0;
  double sampled_online_sum = 0.0;
  double sampled_files_sum = 0.0;
  double measured_slot_count = 0.0;

  // What this slot did to the TFT ledgers, for the auditor.
  double slot_credited = 0.0;    // chunks delivered, 1 credit each
  double slot_cleared = 0.0;     // credit discarded by completion clears
  std::size_t slot_dropped = 0;  // entries forgotten by the decay

  const auto finalize_user = [&](Peer& v, double total_download) {
    if (!v.sampled) return;
    download_time.add(total_download);
    const double online = v.depart - v.arrival;
    online_time.add(online);
    const unsigned cls = static_cast<unsigned>(std::popcount(v.wanted));
    class_download[cls - 1].add(total_download);
    class_online[cls - 1].add(online);
    sampled_download_sum += total_download;
    sampled_online_sum += online;
    sampled_files_sum += static_cast<double>(cls);
  };

  // Peer records outlive their peers, so a cleared ledger also gives back
  // its memory: the peer is a seed now, or idle until its next stage.
  const auto clear_ledger = [&](Peer& v) {
    for (const Credit& c : v.ledger) slot_cleared += c.amount;
    v.ledger.clear();
    v.ledger.shrink_to_fit();
  };

  // Scratch vectors reused across slots.
  std::vector<std::size_t> order;
  std::vector<unsigned> candidates;
  std::vector<unsigned> filtered;
  std::vector<std::size_t> down_all;  // active downloaders, live order
  std::vector<unsigned> list_file;    // file list of down_all[i]
  std::vector<std::size_t> fill_at;   // next flat position per file list
  std::vector<std::uint64_t> interest;  // a session's interest mask
  InterestIndex index;
  index.begin.assign(files, 0);
  index.count.assign(files, 0);
  fill_at.assign(files, 0);

  // Telemetry: cadence-sampled population series and batched slot spans.
  // Observation draws no randomness, so the result is identical with or
  // without sinks attached.
  const obs::ObsSink& sink = config.obs;
  const double sample_dt =
      sink.sample_dt > 0.0 ? sink.sample_dt : config.horizon / 512.0;
  double next_sample = sink.recorder != nullptr ? 0.0 : kInf;
  obs::SeriesId dl_series = 0, seed_series = 0, avail_series = 0;
  std::vector<obs::SeriesId> file_dl_series, file_seed_series,
      file_avail_series;
  if (sink.recorder != nullptr) {
    dl_series = sink.recorder->series("chunk.downloaders");
    seed_series = sink.recorder->series("chunk.seeds");
    avail_series = sink.recorder->series("chunk.availability");
    if (files > 1) {
      for (unsigned f = 0; f < files; ++f) {
        const std::string tag = "chunk.file_" + std::to_string(f + 1);
        file_dl_series.push_back(sink.recorder->series(tag + ".downloaders"));
        file_seed_series.push_back(sink.recorder->series(tag + ".seeds"));
        file_avail_series.push_back(
            sink.recorder->series(tag + ".availability"));
      }
    }
  }
  std::optional<obs::TraceWriter::Span> slot_span;
  std::size_t span_slots = 0;
  double slots_total = 0.0;

  /// Local rarest-first: minimise live availability over `cand`, scanning
  /// from a random rotation (`start` to the end, then the front) so ties
  /// break uniformly.
  const auto rarest_pick = [&](const std::vector<unsigned>& cand) {
    unsigned chosen = cand[0];
    unsigned best_avail = std::numeric_limits<unsigned>::max();
    const std::size_t start = rng.index(cand.size());
    const auto scan = [&](std::size_t from, std::size_t to) {
      for (std::size_t k = from; k < to; ++k) {
        const unsigned c = cand[k];
        if (avail[c] < best_avail) {
          best_avail = avail[c];
          chosen = c;
        }
      }
    };
    scan(start, cand.size());
    scan(0, start);
    return chosen;
  };

  const auto pick_chunk = [&]() -> unsigned {
    switch (config.policy) {
      case PiecePolicy::kRarestFirst:
        return rarest_pick(candidates);
      case PiecePolicy::kRandom:
        return candidates[rng.index(candidates.size())];
      case PiecePolicy::kModeSuppression: {
        // RFwPMS adapted to the slotted substrate: with probability s the
        // modal tier — the minimum-availability pieces every rarest-first
        // uploader would herd onto this slot — is suppressed, provided a
        // strictly less rare alternative exists.
        if (config.suppression_prob > 0.0 &&
            rng.uniform() < config.suppression_prob) {
          unsigned lo = std::numeric_limits<unsigned>::max();
          for (const unsigned c : candidates) lo = std::min(lo, avail[c]);
          filtered.clear();
          for (const unsigned c : candidates) {
            if (avail[c] > lo) filtered.push_back(c);
          }
          if (!filtered.empty()) return rarest_pick(filtered);
        }
        return rarest_pick(candidates);
      }
    }
    return candidates[0];
  };

  /// Takes `vid`, whose receive bucket just emptied, out of every interest
  /// mask for the rest of the slot.
  const auto unlist = [&](std::size_t vid) {
    const HotPeer& h = hot[vid];
    if (file_lists) index.file_ok[h.fpos / 64] &= ~bit_at(h.fpos);
    if (all_list) {
      for (std::uint32_t m = h.accepts; m != 0; m &= m - 1) {
        const auto f = static_cast<unsigned>(std::countr_zero(m));
        index.all_ok[f * index.mask_words + h.apos / 64] &= ~bit_at(h.apos);
      }
    }
  };

  /// Ships chunk `chosen` from `uid` to `vid` and credits the uploader.
  const auto deliver = [&](std::size_t uid, std::size_t vid,
                           unsigned chosen) {
    HotPeer& h = hot[vid];
    const unsigned f = chosen / chunks;
    const unsigned piece = chosen % chunks;
    arena.set(h.row, f, piece);
    // The same bit in the index's copies of the bitmap: in the file list
    // when the receiver's list is file f's, and in the all-downloader list.
    if (file_lists && h.fpos - index.begin[f] < index.count[f]) {
      index.file_words[std::size_t{h.fpos} * bitmap_words + piece / 64] |=
          bit_at(piece);
    }
    if (all_words) {
      index.all_words[(f * down_all.size() + h.apos) * bitmap_words +
                      piece / 64] |= bit_at(piece);
    }
    ++avail[chosen];
    std::vector<Credit>& ledger = peers[vid].ledger;
    const auto it =
        std::find_if(ledger.begin(), ledger.end(),
                     [&](const Credit& c) { return c.sender == uid; });
    if (it != ledger.end()) {
      it->amount += 1.0;
    } else {
      ledger.push_back({uid, 1.0});
    }
    slot_credited += 1.0;
    h.tokens -= 1.0;  // inf stays inf under the homogeneous default
    if (h.tokens < 1.0) unlist(vid);
  };

  // --- the paranoid auditor (ChunkSimConfig::paranoid) --------------------
  // Runs after every slot's credit decay and throws AuditError at the
  // first broken invariant. It draws no randomness, so an audited run is
  // bit-identical to an unaudited one.
  double t = 0.0;
  double ledger_total = 0.0;                  // every ledger, last audit
  std::vector<double> audit_share(files, 0.0);  // file_share, re-derived
  std::vector<unsigned> audit_avail;
  std::vector<std::uint64_t> audit_ok;
  std::vector<char> row_used;
  std::vector<std::uint64_t> sender_seen;
  std::uint64_t audit_stamp = 0;
  struct AuditedPeer {
    double tokens = 0.0;  // receive tokens
    unsigned held = 0;    // chunks held, all files
    bool seed = false;    // skips the next slot's token replenishment
  };
  std::vector<AuditedPeer> audited;  // by peer id, as of the last audit

  /// The eta denominators' shadow: each active downloader's split under
  /// the scheme (docs/PROTOCOL.md), from cold fields, in live order.
  const auto audit_shares = [&]() {
    for (const std::size_t id : live) {
      const Peer& p = peers[id];
      std::uint32_t active = accepts(p);
      if (active == 0) continue;
      double split = 1.0;  // MTSD, and CMFSD without donation: one file
      if (scheme == fluid::SchemeKind::kMtcd) {
        split = 1.0 / static_cast<double>(std::popcount(p.wanted));
      } else if (scheme == fluid::SchemeKind::kMfcd) {
        split = 1.0 / static_cast<double>(std::popcount(p.wanted & ~p.done));
      } else if (scheme == fluid::SchemeKind::kCmfsd && config.rho < 1.0 &&
                 (p.done & p.counted) != 0) {
        split = config.rho;
      }
      while (active != 0) {
        audit_share[static_cast<unsigned>(std::countr_zero(active))] += split;
        active &= active - 1;
      }
    }
  };

  const auto audit = [&]() {
    const auto fail = [&](const std::string& why) {
      std::ostringstream os;
      os << "chunk-sim paranoid audit failed at t = " << t << ": " << why;
      throw AuditError(os.str());
    };
    const auto fail_peer = [&](std::size_t id, const char* why) {
      fail("peer " + std::to_string(id) + " " + why);
    };

    // Cached mirrors (accepts masks, arena rows, receive tokens), and the
    // availability census recounted from the offered bitmaps.
    audit_avail.assign(avail.size(), 0u);
    row_used.assign(arena.rows(), 0);
    const std::size_t known = audited.size();
    audited.resize(peers.size());
    for (const std::size_t id : live) {
      const Peer& p = peers[id];
      const HotPeer& h = hot[id];
      if (h.accepts != accepts(p)) fail_peer(id, "has a stale accepts mask");
      if ((h.accepts & p.done) != 0) {
        fail_peer(id, "accepts a file it holds completely");
      }
      if (h.row >= arena.rows() || row_used[h.row] != 0) {
        fail_peer(id, "has an arena row out of range or shared");
      }
      row_used[h.row] = 1;
      if ((p.counted & ~p.wanted) != 0 || (p.done & ~p.wanted) != 0) {
        fail_peer(id, "offers or completed an unwanted file");
      }
      unsigned held_total = 0;
      for (unsigned f = 0; f < files; ++f) {
        const unsigned held = arena.held(h.row, f);
        held_total += held;
        const bool offered = ((p.counted >> f) & 1u) != 0;
        unsigned* file_avail =
            &audit_avail[static_cast<std::size_t>(f) * chunks];
        unsigned bits = 0;
        bool beyond = false;
        arena.for_each_held(h.row, f, [&](unsigned c) {
          ++bits;
          if (c >= chunks) {
            beyond = true;
          } else if (offered) {
            ++file_avail[c];
          }
        });
        if (bits != held || beyond) {
          fail_peer(id, "has a bitmap that disagrees with its held count");
        }
        if (!((p.wanted >> f) & 1u) && held != 0) {
          fail_peer(id, "holds chunks of an unwanted file");
        }
        if (((p.done >> f) & 1u) != (held == chunks ? 1u : 0u)) {
          fail_peer(id, "has a done mask that disagrees with its bitmaps");
        }
      }
      // Receive tokens: the last audit's level, topped up by the class
      // rate to its bucket unless the peer was seeding, less one per
      // chunk its bitmaps gained (a newcomer starts with a full bucket).
      double tokens = kInf;
      if (have_classes && !p.permanent) {
        const double bucket = class_bucket[p.bclass];
        const bool fresh = id >= known;
        tokens = fresh ? bucket : audited[id].tokens;
        if (fresh || !audited[id].seed) {
          tokens = std::min(tokens + class_tokens[p.bclass], bucket);
        }
        tokens -= static_cast<double>(held_total -
                                      (fresh ? 0u : audited[id].held));
      }
      if (h.tokens != tokens) {
        fail_peer(id, "has receive tokens its deliveries do not explain");
      }
      audited[id] = {h.tokens, held_total, p.is_seed};
    }
    if (audit_avail != avail) {
      fail("availability census differs from the offered bitmaps");
    }

    // The interest index, rebuilt from the arena, the hot views and the
    // receive tokens: only this slot's downloaders have positions, each
    // entry's hot view points back at it, its ok bits say "a token left
    // and still accepts the file", and its words are its bitmap. The file
    // lists hold every downloader once.
    std::size_t positioned = 0;
    for (const std::size_t id : live) {
      const HotPeer& h = hot[id];
      if (h.apos == kUnlisted && h.fpos == kUnlisted) continue;
      ++positioned;
      if (h.apos >= down_all.size() || down_all[h.apos] != id) {
        fail_peer(id, "has an interest-index position but is not listed");
      }
    }
    if (positioned != down_all.size()) {
      fail("a listed downloader has no interest-index position");
    }
    const auto check_entry = [&](std::size_t id, const std::uint64_t* words,
                                 unsigned f) {
      const std::uint64_t* bitmap = arena.bitmap(hot[id].row, f);
      if (!std::equal(words, words + bitmap_words, bitmap)) {
        fail_peer(id, "has interest-index words that differ from its bitmap");
      }
    };
    if (file_lists) {
      audit_ok.assign(index.file_ok.size(), 0);
      std::size_t listed = 0;
      for (unsigned f = 0; f < files; ++f) {
        listed += index.count[f];
        for (std::size_t p = index.begin[f];
             p < index.begin[f] + index.count[f]; ++p) {
          const std::size_t id = index.file_ids[p];
          const HotPeer& h = hot[id];
          if (h.fpos != p || h.apos == kUnlisted) {
            fail_peer(id, "is misplaced in the file lists");
          }
          if (h.tokens >= 1.0 && ((h.accepts >> f) & 1u) != 0) {
            audit_ok[p / 64] |= bit_at(p);
          }
          check_entry(id, &index.file_words[p * bitmap_words], f);
        }
      }
      if (listed != down_all.size()) {
        fail("the file lists do not hold every downloader once");
      }
      if (audit_ok != index.file_ok) {
        fail("a file list's ok mask differs from the tokens and accepts");
      }
    }
    if (all_list) {
      const std::size_t n = down_all.size();
      audit_ok.assign(index.all_ok.size(), 0);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t id = down_all[i];
        const HotPeer& h = hot[id];
        if (h.apos != i) fail_peer(id, "is misplaced in the all-list");
        for (unsigned f = 0; f < files; ++f) {
          if (h.tokens >= 1.0 && ((h.accepts >> f) & 1u) != 0) {
            audit_ok[f * index.mask_words + i / 64] |= bit_at(i);
          }
          if (all_words) {
            check_entry(id, &index.all_words[(f * n + i) * bitmap_words], f);
          }
        }
      }
      if (audit_ok != index.all_ok) {
        fail("an all-list ok mask differs from the tokens and accepts");
      }
    }

    // TFT credit: one entry per foreign sender, none below the floor, no
    // credit held while not downloading, and the total moved only by
    // this slot's deliveries, completion clears and decay.
    sender_seen.resize(peers.size(), 0);
    double total = 0.0;
    for (const std::size_t id : live) {
      const Peer& p = peers[id];
      if (!p.ledger.empty() && hot[id].accepts == 0) {
        fail_peer(id, "holds credit while not downloading");
      }
      ++audit_stamp;
      for (const Credit& c : p.ledger) {
        if (c.sender == id || c.sender >= peers.size()) {
          fail_peer(id, "credits itself or an unknown sender");
        }
        if (sender_seen[c.sender] == audit_stamp) {
          fail_peer(id, "has two ledger entries for one sender");
        }
        sender_seen[c.sender] = audit_stamp;
        if (!(c.amount >= kCreditFloor)) {
          fail_peer(id, "keeps credit below the floor");
        }
        total += c.amount;
      }
    }
    const double before_decay = ledger_total + slot_credited - slot_cleared;
    const double forgotten = config.credit_decay * before_decay - total;
    const double tol = 1e-9 * std::max(1.0, before_decay);
    if (forgotten < -tol ||
        forgotten > kCreditFloor * static_cast<double>(slot_dropped) + tol) {
      fail("TFT credit total is not conserved");
    }
    ledger_total = total;

    // Donated uploads are a subset of the seed uploads, CMFSD only.
    if (donated_uploads > seed_uploads ||
        (scheme != fluid::SchemeKind::kCmfsd && donated_uploads != 0.0)) {
      fail("donated uploads double-counted or outside CMFSD");
    }

    // The eta denominators match the scheme's split.
    for (unsigned f = 0; f < files; ++f) {
      if (audit_share[f] != file_share[f]) {
        fail("file " + std::to_string(f + 1) +
             " eta denominator differs from the scheme's split");
      }
    }
  };

  while (t < config.horizon) {
    const bool measured = t >= config.warmup;
    slots_total += 1.0;
    slot_credited = 0.0;
    slot_cleared = 0.0;
    slot_dropped = 0;
    if (sink.trace != nullptr) {
      if (!slot_span.has_value()) {
        slot_span.emplace(sink.trace->span("chunk.slots"));
      }
      if (++span_slots >= sink.trace_batch) {
        std::ostringstream args;
        args << "{\"slots\": " << span_slots << ", \"sim_t\": " << t << "}";
        slot_span->set_args(args.str());
        slot_span.reset();
        span_slots = 0;
      }
    }
    if (next_sample <= t) {
      double x = 0.0, y = 0.0;
      for (const std::size_t id : live) {
        (accepts(peers[id]) == 0 ? y : x) += 1.0;
      }
      double copies = 0.0;
      for (const unsigned n : avail) copies += static_cast<double>(n);
      sink.recorder->append(dl_series, t, x);
      sink.recorder->append(seed_series, t, y);
      sink.recorder->append(avail_series, t,
                            copies / static_cast<double>(avail.size()));
      if (!file_dl_series.empty()) {
        std::vector<double> fx(files, 0.0), fs(files, 0.0);
        for (const std::size_t id : live) {
          const Peer& p = peers[id];
          std::uint32_t m = accepts(p);
          while (m != 0) {
            fx[static_cast<unsigned>(std::countr_zero(m))] += 1.0;
            m &= m - 1;
          }
          m = p.done & p.counted;
          while (m != 0) {
            fs[static_cast<unsigned>(std::countr_zero(m))] += 1.0;
            m &= m - 1;
          }
        }
        for (unsigned f = 0; f < files; ++f) {
          double fcopies = 0.0;
          for (unsigned c = 0; c < chunks; ++c) {
            fcopies += static_cast<double>(
                avail[static_cast<std::size_t>(f) * chunks + c]);
          }
          sink.recorder->append(file_dl_series[f], t, fx[f]);
          sink.recorder->append(file_seed_series[f], t, fs[f]);
          sink.recorder->append(file_avail_series[f], t,
                                fcopies / static_cast<double>(chunks));
        }
      }
      next_sample += sample_dt;
    }

    // --- arrivals (Poisson thinned to this slot) ------------------------
    // The per-slot expectation follows lambda(t); rate_at returns
    // entry_rate exactly for the homogeneous default.
    const double expect =
        config.arrival.rate_at(config.entry_rate, t) * slot_dt;
    // Replenish the receive buckets at the top of the slot.
    if (have_classes) {
      for (const std::size_t vid : live) {
        const Peer& v = peers[vid];
        if (v.is_seed) continue;
        HotPeer& h = hot[vid];
        h.tokens = std::min(h.tokens + class_tokens[v.bclass],
                            class_bucket[v.bclass]);
      }
    }
    // Draw the Poisson count via inter-arrival exponentials.
    double budget = expect;
    while (true) {
      const double gap = rng.exponential(1.0);
      if (gap > budget) break;
      budget -= gap;
      std::uint32_t wanted_mask = 1u;
      if (files > 1) {
        // Binomial wanted set conditioned on wanting at least one file
        // (the correlation model's L_i truncated at i = 0).
        do {
          wanted_mask = 0;
          for (unsigned f = 0; f < files; ++f) {
            if (rng.bernoulli(config.correlation)) wanted_mask |= file_bit(f);
          }
        } while (wanted_mask == 0);
      }
      spawn_peer(wanted_mask, t, measured);
    }
    if (live.size() > config.max_peers) {
      throw SolverError("chunk simulation exceeded max_peers");
    }

    // --- departures, per-torrent seeding expiries, MTSD stage advance ----
    for (std::size_t li = 0; li < live.size();) {
      const std::size_t id = live[li];
      Peer& p = peers[id];
      if (!p.permanent) {
        if (scheme == fluid::SchemeKind::kMtcd) {
          std::uint32_t pending = p.done & p.counted;
          while (pending != 0) {
            const unsigned f = static_cast<unsigned>(std::countr_zero(pending));
            pending &= pending - 1;
            if (p.file_seed_depart[f] <= t) withdraw(id, f);
          }
        } else if (scheme == fluid::SchemeKind::kMtsd && p.seeding_phase &&
                   p.seed_until <= t) {
          withdraw(id, p.order[p.stage]);
          ++p.stage;
          p.seeding_phase = false;
          p.stage_start = t;
        }
        if (p.is_seed && p.depart <= t) {
          std::uint32_t rest = p.counted;
          while (rest != 0) {
            const unsigned f = static_cast<unsigned>(std::countr_zero(rest));
            rest &= rest - 1;
            withdraw(id, f);
          }
          arena.release(hot[id].row);
          // It may still be a sender in others' ledgers.
          hot[id].fpos = hot[id].apos = kUnlisted;
          live[li] = live.back();
          live.pop_back();
          continue;
        }
      }
      ++li;
    }

    // --- the interest index (live order, superset for this slot) ---------
    // Pass 1 refreshes every live accepts mask, lists the active
    // downloaders and gives each its file list. MTCD peers downloading
    // several torrents focus their receive side on ONE of them per slot
    // (uniform): the paper's 1/l download-bandwidth split as a protocol
    // mechanic — a class-i peer draws each torrent's service a 1/i
    // fraction of the time, so its per-file time scales like the fluid's
    // iA. Single-torrent peers (and every peer at K = 1) draw nothing;
    // under MTSD and CMFSD a downloader accepts one file at a time.
    down_all.clear();
    list_file.clear();
    std::fill(index.count.begin(), index.count.end(), std::size_t{0});
    for (const std::size_t vid : live) {
      std::uint32_t m = accepts(peers[vid]);
      HotPeer& h = hot[vid];
      h.accepts = m;
      if (m == 0) {
        h.fpos = h.apos = kUnlisted;
        continue;
      }
      h.apos = static_cast<std::uint32_t>(down_all.size());
      down_all.push_back(vid);
      if (!file_lists) continue;
      if (scheme == fluid::SchemeKind::kMtcd && (m & (m - 1)) != 0) {
        std::size_t skip = rng.index(static_cast<std::size_t>(std::popcount(m)));
        while (skip-- > 0) m &= m - 1;
      }
      const auto f = static_cast<unsigned>(std::countr_zero(m));
      list_file.push_back(f);
      ++index.count[f];
    }
    // Pass 2 lays the lists out and copies each entry's bitmap words.
    std::size_t scratch_words = 0;  // the largest list's, for `interest`
    if (file_lists) {
      std::size_t end = 0;
      for (unsigned f = 0; f < files; ++f) {
        index.begin[f] = fill_at[f] = end;
        const std::size_t words = (index.count[f] + 63) / 64;
        end += words * 64;
        scratch_words = std::max(scratch_words, words);
      }
      index.file_ids.resize(end);
      index.file_words.resize(end * bitmap_words);
      index.file_ok.assign(end / 64, 0);
      for (std::size_t i = 0; i < down_all.size(); ++i) {
        const std::size_t vid = down_all[i];
        HotPeer& h = hot[vid];
        const std::size_t p = fill_at[list_file[i]]++;
        h.fpos = static_cast<std::uint32_t>(p);
        index.file_ids[p] = vid;
        std::copy_n(arena.bitmap(h.row, list_file[i]), bitmap_words,
                    &index.file_words[p * bitmap_words]);
        if (h.tokens >= 1.0) index.file_ok[p / 64] |= bit_at(p);
      }
    }
    if (all_list) {
      const std::size_t n = down_all.size();
      index.mask_words = (n + 63) / 64;
      index.all_ok.assign(files * index.mask_words, 0);
      if (all_words) index.all_words.resize(files * n * bitmap_words);
      for (std::size_t i = 0; i < n; ++i) {
        const HotPeer& h = hot[down_all[i]];
        if (h.tokens >= 1.0) {
          for (std::uint32_t m = h.accepts; m != 0; m &= m - 1) {
            const auto f = static_cast<unsigned>(std::countr_zero(m));
            index.all_ok[f * index.mask_words + i / 64] |= bit_at(i);
          }
        }
        if (all_words) {
          for (unsigned f = 0; f < files; ++f) {
            std::copy_n(arena.bitmap(h.row, f), bitmap_words,
                        &index.all_words[(f * n + i) * bitmap_words]);
          }
        }
      }
      scratch_words = std::max(scratch_words, index.mask_words);
    }
    if (interest.size() < scratch_words) interest.resize(scratch_words);
    peak_downloaders =
        std::max(peak_downloaders, static_cast<double>(down_all.size()));

    // --- population accounting -------------------------------------------
    if (measured) {
      downloaders_avg.add(static_cast<double>(down_all.size()), slot_dt);
      seeds_avg.add(static_cast<double>(live.size() - down_all.size()),
                    slot_dt);
      measured_slot_count += 1.0;
      for (const std::size_t vid : down_all) {
        const Peer& v = peers[vid];
        std::uint32_t m = hot[vid].accepts;
        // Per-file TFT bandwidth share this downloader points at file f
        // (the eta denominator — docs/PROTOCOL.md). MTCD splits over the
        // *class* (all wanted torrents, the fluid's 1/i; completed ones
        // get theirs as altruistic sessions). CMFSD allocates only rho
        // of a donate-eligible peer's slot to tit-for-tat (the rest is
        // donation, which the fluid's pool serves without eta). The
        // merged/sequential schemes split over what is active.
        double share;
        if (scheme == fluid::SchemeKind::kMtcd) {
          share = 1.0 / static_cast<double>(std::popcount(v.wanted));
        } else if (scheme == fluid::SchemeKind::kCmfsd &&
                   (v.done & v.counted) != 0 && config.rho < 1.0) {
          share = config.rho;
        } else {
          share = 1.0 / static_cast<double>(std::popcount(m));
        }
        while (m != 0) {
          const unsigned f = static_cast<unsigned>(std::countr_zero(m));
          m &= m - 1;
          file_share[f] += share;
          file_downloaders[f] += 1.0;
        }
      }
      for (const std::size_t vid : live) {
        std::uint32_t m = peers[vid].done & peers[vid].counted;
        while (m != 0) {
          file_seeders[static_cast<unsigned>(std::countr_zero(m))] += 1.0;
          m &= m - 1;
        }
      }
      if (paranoid) audit_shares();
    }

    // --- file completion (shared tail of every delivery) ------------------
    const auto on_file_complete = [&](std::size_t vid, unsigned f) {
      Peer& v = peers[vid];
      v.done |= file_bit(f);
      const bool concurrent_start = scheme == fluid::SchemeKind::kMtcd ||
                                    scheme == fluid::SchemeKind::kMfcd;
      if (v.sampled) {
        file_download[f].add(t + slot_dt -
                             (concurrent_start ? v.arrival : v.stage_start));
      }
      const bool last = (v.done & v.wanted) == v.wanted;
      switch (scheme) {
        case fluid::SchemeKind::kMtcd: {
          // Each completed torrent is seeded for its own Exp(gamma).
          v.file_seed_depart[f] = t + rng.exponential(config.fluid.gamma);
          if (last) {
            v.is_seed = true;
            double depart = 0.0;
            std::uint32_t m = v.wanted;
            while (m != 0) {
              const unsigned g = static_cast<unsigned>(std::countr_zero(m));
              m &= m - 1;
              depart = std::max(depart, v.file_seed_depart[g]);
            }
            v.depart = depart;
            clear_ledger(v);
            finalize_user(v, t + slot_dt - v.arrival);
          }
          break;
        }
        case fluid::SchemeKind::kMtsd: {
          v.download_accum += t + slot_dt - v.stage_start;
          if (last) {
            v.is_seed = true;
            v.depart = t + rng.exponential(config.fluid.gamma);
            clear_ledger(v);
            finalize_user(v, v.download_accum);
          } else {
            v.seeding_phase = true;
            v.seed_until = t + rng.exponential(config.fluid.gamma);
            clear_ledger(v);
          }
          break;
        }
        case fluid::SchemeKind::kMfcd: {
          if (last) {
            v.is_seed = true;
            v.depart = t + rng.exponential(config.fluid.gamma);
            clear_ledger(v);
            finalize_user(v, t + slot_dt - v.arrival);
          }
          break;
        }
        case fluid::SchemeKind::kCmfsd: {
          if (last) {
            v.is_seed = true;
            v.depart = t + rng.exponential(config.fluid.gamma);
            clear_ledger(v);
            finalize_user(v, t + slot_dt - v.arrival);
          } else {
            ++v.stage;
            v.stage_start = t + slot_dt;
          }
          break;
        }
      }
      // The index follows: v leaves file f's list, and its all-list bits
      // follow its new accepts mask (CMFSD moves on to the next file).
      HotPeer& h = hot[vid];
      const std::uint32_t was = h.accepts;
      h.accepts = accepts(v);
      if (file_lists && h.fpos - index.begin[f] < index.count[f]) {
        index.file_ok[h.fpos / 64] &= ~bit_at(h.fpos);
      }
      if (all_list) {
        const std::uint32_t now = h.tokens >= 1.0 ? h.accepts : 0u;
        for (std::uint32_t m = was | now; m != 0; m &= m - 1) {
          const auto g = static_cast<unsigned>(std::countr_zero(m));
          std::uint64_t& word =
              index.all_ok[g * index.mask_words + h.apos / 64];
          word = ((now >> g) & 1u) != 0 ? word | bit_at(h.apos)
                                        : word & ~bit_at(h.apos);
        }
      }
    };

    // --- one upload session: pick an interested receiver, then a chunk ---
    // The receiver comes from file `list`'s list, or from the all-
    // downloader list when `list` is `files`; `allowed` limits which of
    // the uploader's files are on offer. Altruistic sessions (seeds, MTSD
    // inter-file seeding, CMFSD donations) offer only files the uploader
    // holds completely, and a peer that still accepts such a file lacks a
    // chunk of it, so the index's ok masks are their interested set as
    // they stand. TFT sessions test the uploader's bitmaps against the
    // entries' words, then reciprocate the best recent uploader except on
    // optimistic unchokes. The uploader never counts as interested in
    // itself: it accepts no file it holds completely, and its own words
    // equal its bitmap.
    const auto run_session = [&](std::size_t uid, unsigned list,
                                 std::uint32_t allowed, bool altruistic,
                                 bool donation) {
      const std::uint32_t urow = hot[uid].row;
      const bool by_file = list < files;
      const std::size_t base = by_file ? index.begin[list] : 0;
      const std::size_t n = by_file ? index.count[list] : down_all.size();
      const std::size_t* ids =
          (by_file ? index.file_ids.data() : down_all.data()) + base;
      const std::uint64_t* mask = interest.data();
      if (by_file) {
        const std::uint64_t* ok = index.file_ok.data() + base / 64;
        if (altruistic) {
          mask = ok;
        } else {
          mark_offered(arena.bitmap(urow, list),
                       index.file_words.data() + base * bitmap_words,
                       bitmap_words, ok, n, interest.data(), false);
        }
      } else if (altruistic && (allowed & (allowed - 1)) == 0) {
        mask = index.all_ok.data() +
               static_cast<unsigned>(std::countr_zero(allowed)) *
                   index.mask_words;
      } else {
        bool first = true;
        for (std::uint32_t m = allowed; m != 0; m &= m - 1) {
          const auto f = static_cast<unsigned>(std::countr_zero(m));
          const std::uint64_t* ok = index.all_ok.data() + f * index.mask_words;
          if (altruistic) {
            for (std::size_t j = 0; j < index.mask_words; ++j) {
              interest[j] = first ? ok[j] : interest[j] | ok[j];
            }
          } else {
            mark_offered(arena.bitmap(urow, f),
                         index.all_words.data() + f * n * bitmap_words,
                         bitmap_words, ok, n, interest.data(), !first);
          }
          first = false;
        }
      }
      std::size_t receivers = 0;
      for (std::size_t j = 0; j * 64 < n; ++j) {
        receivers += static_cast<std::size_t>(std::popcount(mask[j]));
      }
      if (measured) uploader_slots += 1.0;
      if (receivers == 0) {
        if (measured) idle_uploader_slots += 1.0;
        return;
      }

      std::size_t pos = nth_set_bit(mask, n, rng.index(receivers));
      if (!altruistic && !(config.optimistic_prob > 0.0 &&
                           rng.uniform() < config.optimistic_prob)) {
        // Tit-for-tat: the interested peer the uploader has most credit
        // for, ties to the earliest in scan order; the draw stands when
        // none has any. Walks the uploader's short ledger and reads each
        // sender's list position (kUnlisted, or another list's, falls
        // outside [0, n)).
        double best = 0.0;
        std::size_t best_pos = n;
        for (const Credit& c : peers[uid].ledger) {
          const HotPeer& s = hot[c.sender];
          const std::size_t p = (by_file ? s.fpos : s.apos) - base;
          const std::size_t q = p < n ? p : 0;  // n > 0: someone is interested
          const bool listed =
              (p < n) & (((mask[q / 64] >> (q % 64)) & 1u) != 0);
          if (listed &&
              (c.amount > best || (c.amount == best && p < best_pos))) {
            best = c.amount;
            best_pos = p;
          }
        }
        if (best_pos < n) pos = best_pos;
      }
      const std::size_t receiver = ids[pos];

      candidates.clear();
      std::uint32_t fs = hot[receiver].accepts & allowed;
      while (fs != 0) {
        const unsigned f = static_cast<unsigned>(std::countr_zero(fs));
        fs &= fs - 1;
        arena.append_missing(urow, hot[receiver].row, f, candidates);
      }
      if (candidates.empty()) {
        // A stale index entry: fail typed here, before pick_chunk reads
        // past an empty candidate list (the slot-end audit comes later).
        throw AuditError("chunk-sim interest index offered a receiver "
                         "that lacks nothing on offer");
      }
      const unsigned chosen = pick_chunk();
      const unsigned cf = chosen / chunks;

      deliver(uid, receiver, chosen);
      if (measured) {
        (altruistic ? seed_uploads : downloader_uploads) += 1.0;
        if (!altruistic) file_tft_uploads[cf] += 1.0;
        if (donation) donated_uploads += 1.0;
      }
      if (arena.full(hot[receiver].row, cf)) on_file_complete(receiver, cf);
    };
    const unsigned all = files;  // run_session's id of the all-list

    // --- uploads: every peer with data ships one chunk per session --------
    order = live;
    rng.shuffle(order);
    for (const std::size_t uid : order) {
      Peer& u = peers[uid];
      const std::uint32_t urow = hot[uid].row;
      // A class-b peer banks upload_scale_b turns per slot and spends the
      // whole ones; publisher seeds (and every peer under the homogeneous
      // default) take exactly one turn — no extra draws, bit-identical.
      unsigned turns = 1;
      if (have_classes && !u.permanent) {
        u.up_credit += class_turns[u.bclass];
        turns = static_cast<unsigned>(u.up_credit);
        u.up_credit -= static_cast<double>(turns);
      }
      for (unsigned turn = 0; turn < turns; ++turn) {
      switch (scheme) {
        case fluid::SchemeKind::kMtcd: {
          // The paper's class split: a class-i user dedicates mu/i of
          // its upload to each wanted torrent for its whole stay —
          // downloading and seeding alike (the fluid's seed term is
          // mu_bar * y, not mu * y; that is where the A formula's
          // gamma - mu_bar numerator comes from). One upload session
          // per slot, on a uniformly drawn wanted torrent: altruistic
          // if that file is done and still seeded, tit-for-tat if it is
          // still downloading, idle if its seeding residence expired.
          std::uint32_t m = u.wanted;
          if ((m & (m - 1)) != 0) {
            std::size_t skip =
                rng.index(static_cast<std::size_t>(std::popcount(m)));
            while (skip-- > 0) m &= m - 1;
          }
          const unsigned f = static_cast<unsigned>(std::countr_zero(m));
          const std::uint32_t fb = file_bit(f);
          if ((u.done & u.counted & fb) != 0) {
            run_session(uid, f, fb, /*altruistic=*/true, /*donation=*/false);
          } else if ((hot[uid].accepts & fb) != 0 && arena.held(urow, f) > 0) {
            run_session(uid, f, fb, /*altruistic=*/false, /*donation=*/false);
          }
          break;
        }
        case fluid::SchemeKind::kMtsd: {
          // Sequential: each subtorrent is an independent single
          // torrent — full-rate altruistic seeding of the current file
          // between downloads, full-rate tit-for-tat while downloading.
          std::uint32_t seeding = u.done & u.counted;
          while (seeding != 0) {
            const unsigned f = static_cast<unsigned>(std::countr_zero(seeding));
            seeding &= seeding - 1;
            run_session(uid, f, file_bit(f),
                        /*altruistic=*/true, /*donation=*/false);
          }
          const std::uint32_t active = hot[uid].accepts;  // one file at most
          if (active != 0) {
            const auto f = static_cast<unsigned>(std::countr_zero(active));
            if (arena.held(urow, f) > 0) {
              run_session(uid, f, active, /*altruistic=*/false,
                          /*donation=*/false);
            }
          }
          break;
        }
        case fluid::SchemeKind::kMfcd: {
          // One merged swarm: a single session offers every held chunk.
          if (u.is_seed) {
            if ((u.wanted & u.counted) != 0) {
              run_session(uid, all, u.wanted & u.counted,
                          /*altruistic=*/true, /*donation=*/false);
            }
            break;
          }
          std::uint32_t offer = 0;
          std::uint32_t m = u.wanted & u.counted;
          while (m != 0) {
            const unsigned f = static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            if (arena.held(urow, f) > 0) offer |= file_bit(f);
          }
          if (offer != 0) {
            run_session(uid, all, offer, /*altruistic=*/false,
                        /*donation=*/false);
          }
          break;
        }
        case fluid::SchemeKind::kCmfsd: {
          if (u.is_seed) {
            if ((u.wanted & u.counted) != 0) {
              run_session(uid, all, u.wanted & u.counted,
                          /*altruistic=*/true, /*donation=*/false);
            }
            break;
          }
          // The paper's P(i, j) bandwidth split: with probability
          // 1 - rho the slot is donated to the peer's completed
          // subtorrents; otherwise it trades on the current one.
          const std::uint32_t donate_mask = u.done & u.counted;
          if (donate_mask != 0 && config.rho < 1.0 &&
              rng.uniform() < 1.0 - config.rho) {
            run_session(uid, all, donate_mask, /*altruistic=*/true,
                        /*donation=*/true);
            break;
          }
          const unsigned cur = u.order[u.stage];
          if (arena.held(urow, cur) > 0) {
            run_session(uid, cur, file_bit(cur),
                        /*altruistic=*/false, /*donation=*/false);
          }
          break;
        }
      }
      }
    }

    // --- TFT credit decay --------------------------------------------------
    for (const std::size_t id : live) {
      Peer& p = peers[id];
      if (p.is_seed || p.ledger.empty()) continue;
      std::size_t kept = 0;
      for (const Credit& c : p.ledger) {
        const double amount = c.amount * config.credit_decay;
        if (amount >= kCreditFloor) p.ledger[kept++] = {c.sender, amount};
      }
      slot_dropped += p.ledger.size() - kept;
      p.ledger.resize(kept);
    }

    if (paranoid) audit();
    t += slot_dt;
  }
  if (slot_span.has_value()) {
    std::ostringstream args;
    args << "{\"slots\": " << span_slots << ", \"sim_t\": " << t << "}";
    slot_span->set_args(args.str());
    slot_span.reset();
  }
  if (sink.metrics != nullptr) {
    obs::MetricsRegistry& m = *sink.metrics;
    m.add(m.counter("chunk.slots"), static_cast<std::uint64_t>(slots_total));
    m.add(m.counter("chunk.completions"), download_time.count());
    m.add(m.counter("chunk.downloader_uploads"),
          static_cast<std::uint64_t>(downloader_uploads));
    m.add(m.counter("chunk.seed_uploads"),
          static_cast<std::uint64_t>(seed_uploads));
    if (scheme == fluid::SchemeKind::kCmfsd) {
      m.add(m.counter("chunk.donated_uploads"),
            static_cast<std::uint64_t>(donated_uploads));
    }
  }

  ChunkSimResult result;
  result.completed_peers = download_time.count();
  result.mean_download_time = download_time.mean();
  result.ci_download_time = download_time.ci_halfwidth();
  result.mean_online_time = online_time.mean();
  result.avg_downloaders = downloaders_avg.average();
  result.avg_seeds = seeds_avg.average();
  result.peak_downloaders = peak_downloaders;
  const double measured_slots =
      (config.horizon - config.warmup) / slot_dt;
  const double dl_per_slot = downloader_uploads / measured_slots;
  if (files == 1) {
    result.emergent_eta = result.avg_downloaders > 0.0
                              ? dl_per_slot / result.avg_downloaders
                              : 0.0;
  } else {
    // K > 1: eta_hat = TFT chunks delivered per unit of allocated TFT
    // bandwidth share (the per-file shares summed). At K = 1 the two
    // definitions coincide; the branch keeps the single-torrent
    // expression bit-identical to the pre-refactor substrate.
    double tft_total = 0.0;
    double share_total = 0.0;
    for (unsigned f = 0; f < files; ++f) {
      tft_total += file_tft_uploads[f];
      share_total += file_share[f];
    }
    result.emergent_eta = share_total > 0.0 ? tft_total / share_total : 0.0;
  }
  const double total_uploads = downloader_uploads + seed_uploads;
  if (total_uploads > 0.0) {
    result.downloader_upload_share = downloader_uploads / total_uploads;
    result.seed_upload_share = seed_uploads / total_uploads;
  }
  result.idle_fraction =
      uploader_slots > 0.0 ? idle_uploader_slots / uploader_slots : 0.0;
  if (result.emergent_eta > 0.0 &&
      config.fluid.gamma > config.fluid.mu) {
    result.fluid_prediction =
        (config.fluid.gamma - config.fluid.mu) /
        (config.fluid.gamma * config.fluid.mu * result.emergent_eta);
  }
  if (sampled_files_sum > 0.0) {
    result.avg_download_per_file = sampled_download_sum / sampled_files_sum;
    result.avg_online_per_file = sampled_online_sum / sampled_files_sum;
  }
  result.files.resize(files);
  for (unsigned f = 0; f < files; ++f) {
    ChunkFileResult& fr = result.files[f];
    fr.emergent_eta =
        file_share[f] > 0.0 ? file_tft_uploads[f] / file_share[f] : 0.0;
    if (measured_slot_count > 0.0) {
      fr.avg_downloaders = file_downloaders[f] / measured_slot_count;
      fr.avg_seeds = file_seeders[f] / measured_slot_count;
    }
    fr.completions = file_download[f].count();
    fr.mean_download_time = file_download[f].mean();
  }
  result.classes.resize(files);
  for (unsigned i = 0; i < files; ++i) {
    ChunkClassResult& cr = result.classes[i];
    cr.completed_users = class_download[i].count();
    cr.mean_download_time = class_download[i].mean();
    cr.mean_online_time = class_online[i].mean();
  }
  return result;
}

}  // namespace btmf::sim
