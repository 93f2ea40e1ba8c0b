// Struct-of-arrays user state for the event kernel.
//
// The kernel's hot dispatch path touches a handful of per-user fields per
// event (a slot state, a generation counter, a completion target) — under
// the old array-of-structs layout every touch dragged a whole SimUser
// (several vectors deep) through the cache. UserPool stores each field in
// its own column instead: scalar columns indexed by a dense user id, and
// per-slot columns (one cell per requested file) indexed through a
// SlotArena offset, so the structures the dispatch loop scans are flat
// arrays of exactly the bytes it needs.
//
// Identity and recycling
// ----------------------
// User ids are dense and stable for the lifetime of a row. Every kernel,
// serial or decomposed, releases a row when its user retires (or crashes
// in a churn burst), and the next admission reuses it from a LIFO free
// list (the arena recycles the slot spans length-stably), so the columns
// stay sized to the peak live population rather than to every user ever
// admitted. Every row carries the user's admission sequence number
// `seq`; queue entries snapshot it, and a mismatch (the row was released,
// and possibly re-tenanted) marks the entry stale before any slot column
// is dereferenced. Event orderings tie-break on `seq` — admission order —
// never on the row id, so recycled and non-recycled runs dispatch
// simultaneous events identically.
//
// SimUser is now a *view*: a bundle of references and spans over the
// columns, constructed on demand by UserPool::view. Policies keep the
// familiar `u.state[slot]` / `u.arrival` syntax; the spans stay valid
// across policy callbacks because users are only ever created from the
// kernel's own admission paths, never mid-callback.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "btmf/sim/arena.h"

namespace btmf::sim {

/// Lifecycle of one download slot (one file for the concurrent schemes,
/// the current stage for the sequential ones).
enum class SlotState : std::uint8_t { kIdle, kDownloading, kSeeding };

/// View of one user's row in the pool. The kernel owns the lifecycle
/// fields and the per-slot scheduling state; the scheme scratch fields
/// below are written by the policies only. Boolean flags are uint8_t
/// references (the columns are byte arrays); they assign and test like
/// bools.
struct SimUser {
  double& arrival;
  std::uint64_t& seq;            ///< admission order; staleness guard
  unsigned& cls;                 ///< logical class: files the USER requested
  std::uint8_t& sampled;         ///< arrived after warm-up
  std::uint8_t& aborted;         ///< abandoned some download

  /// Requested torrent ids — in a sharded kernel, only the slots this
  /// shard owns; cls keeps the user's logical class.
  std::span<unsigned> files;

  // Per-slot scheduling state (sized files.size()).
  std::span<SlotState> state;
  std::span<std::uint32_t> sched_gen;  ///< validates group heap entries
  std::span<std::uint32_t> inst;       ///< validates abort heap entries
  std::span<std::size_t> gid;          ///< current service group
  std::span<double> target;            ///< completion target in S_g space
  /// Per-slot "file fully downloaded" flags, set by the policies; the
  /// fault layer uses them to decide what a crashed peer may keep.
  std::span<std::uint8_t> done;

  // Scheme scratch.
  unsigned& seq_pos;             ///< sequential schemes: current stage
  unsigned& live_parts;          ///< MTCD: virtual peers not yet departed
  double& stage_start;
  double& download_accum;        ///< summed stage durations
  double& last_completion;

  // CMFSD / Adapt scratch.
  double& rho;
  std::uint8_t& cheater;
  std::uint8_t& adaptive;
  unsigned& vseed_target;        ///< subtorrent served (local pool modes)
  double& up_base;               ///< uploaded-virtual accumulated at up_mark
  double& up_mark;               ///< time of last upload sync
  double& rv_base;               ///< received-virtual accumulated at rv_mark
  double& rv_mark;               ///< pool integral value at last sync
  unsigned& hi_streak;
  unsigned& lo_streak;

  std::size_t& live_pos;         ///< index into the kernel's live list

  /// Slots materialised for this user (== cls except in sharded kernels).
  [[nodiscard]] unsigned slots() const {
    return static_cast<unsigned>(state.size());
  }
};

class UserPool {
 public:
  /// seq value of a released row; never collides with a real admission
  /// sequence, so stale entries fail the seq check without touching the
  /// (possibly re-tenanted) slot span.
  static constexpr std::uint64_t kDeadSeq = ~std::uint64_t{0};

  /// Creates a user row (recycling a released one when available) with
  /// the given slot files, resetting every column to its default.
  std::size_t create(std::span<const unsigned> files, unsigned logical_cls,
                     double arrival, bool sampled, std::uint64_t seq) {
    std::size_t ui;
    if (!free_rows_.empty()) {
      ui = free_rows_.back();
      free_rows_.pop_back();
    } else {
      ui = arrival_.size();
      grow_row();
    }
    const std::size_t n = files.size();
    const std::size_t off = arena_.allocate(n);
    ensure_slot_capacity(off + n);
    off_[ui] = off;
    nslots_[ui] = static_cast<unsigned>(n);

    arrival_[ui] = arrival;
    seq_[ui] = seq;
    cls_[ui] = logical_cls;
    sampled_[ui] = sampled ? 1 : 0;
    aborted_[ui] = 0;
    seq_pos_[ui] = 0;
    live_parts_[ui] = 0;
    stage_start_[ui] = 0.0;
    download_accum_[ui] = 0.0;
    last_completion_[ui] = 0.0;
    rho_[ui] = 0.0;
    cheater_[ui] = 0;
    adaptive_[ui] = 0;
    vseed_target_[ui] = 0;
    up_base_[ui] = up_mark_[ui] = 0.0;
    rv_base_[ui] = rv_mark_[ui] = 0.0;
    hi_streak_[ui] = lo_streak_[ui] = 0;
    live_pos_[ui] = 0;

    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = off + i;
      files_[c] = files[i];
      state_[c] = SlotState::kIdle;
      sched_gen_[c] = 0;
      inst_[c] = 0;
      gid_[c] = 0;
      target_[c] = 0.0;
      done_[c] = 0;
      rng_ctr_[c] = 0;
    }
    return ui;
  }

  /// Returns the row and its slot span to the free lists. The row's seq
  /// becomes kDeadSeq, so every queue entry naming it is stale from here
  /// on; the slot states are cleared defensively for walkers that only
  /// check states.
  void release(std::size_t ui) {
    const std::size_t off = off_[ui];
    const std::size_t n = nslots_[ui];
    for (std::size_t i = 0; i < n; ++i) state_[off + i] = SlotState::kIdle;
    arena_.release(off, n);
    seq_[ui] = kDeadSeq;
    free_rows_.push_back(ui);
  }

  [[nodiscard]] std::size_t size() const { return arrival_.size(); }
  [[nodiscard]] std::size_t free_rows() const { return free_rows_.size(); }
  [[nodiscard]] const SlotArena& arena() const { return arena_; }

  [[nodiscard]] SimUser view(std::size_t ui) {
    const std::size_t off = off_[ui];
    const std::size_t n = nslots_[ui];
    return SimUser{
        arrival_[ui],
        seq_[ui],
        cls_[ui],
        sampled_[ui],
        aborted_[ui],
        {files_.data() + off, n},
        {state_.data() + off, n},
        {sched_gen_.data() + off, n},
        {inst_.data() + off, n},
        {gid_.data() + off, n},
        {target_.data() + off, n},
        {done_.data() + off, n},
        seq_pos_[ui],
        live_parts_[ui],
        stage_start_[ui],
        download_accum_[ui],
        last_completion_[ui],
        rho_[ui],
        cheater_[ui],
        adaptive_[ui],
        vseed_target_[ui],
        up_base_[ui],
        up_mark_[ui],
        rv_base_[ui],
        rv_mark_[ui],
        hi_streak_[ui],
        lo_streak_[ui],
        live_pos_[ui],
    };
  }

  // ---- hot-path column accessors (no view construction) -----------------
  [[nodiscard]] std::uint64_t seq(std::size_t ui) const { return seq_[ui]; }
  [[nodiscard]] unsigned cls(std::size_t ui) const { return cls_[ui]; }
  [[nodiscard]] unsigned slots(std::size_t ui) const { return nslots_[ui]; }
  [[nodiscard]] bool sampled(std::size_t ui) const {
    return sampled_[ui] != 0;
  }
  [[nodiscard]] bool aborted(std::size_t ui) const {
    return aborted_[ui] != 0;
  }
  [[nodiscard]] double arrival(std::size_t ui) const { return arrival_[ui]; }
  [[nodiscard]] std::uint32_t sched_gen(std::size_t ui, unsigned slot) const {
    return sched_gen_[off_[ui] + slot];
  }
  [[nodiscard]] std::uint32_t inst(std::size_t ui, unsigned slot) const {
    return inst_[off_[ui] + slot];
  }
  [[nodiscard]] SlotState state(std::size_t ui, unsigned slot) const {
    return state_[off_[ui] + slot];
  }
  [[nodiscard]] unsigned file(std::size_t ui, unsigned slot) const {
    return files_[off_[ui] + slot];
  }
  /// Column index of (ui, slot): unique among live slots and below
  /// arena().capacity(), so per-slot scratch arrays can be indexed by it.
  [[nodiscard]] std::size_t slot_index(std::size_t ui, unsigned slot) const {
    return off_[ui] + slot;
  }
  [[nodiscard]] std::size_t gid(std::size_t ui, unsigned slot) const {
    return gid_[off_[ui] + slot];
  }
  [[nodiscard]] double target(std::size_t ui, unsigned slot) const {
    return target_[off_[ui] + slot];
  }
  [[nodiscard]] std::size_t& live_pos(std::size_t ui) {
    return live_pos_[ui];
  }
  /// Post-incremented per-slot draw counter for the counter-based RNG
  /// streams of a sharded kernel.
  std::uint32_t bump_rng_ctr(std::size_t ui, unsigned slot) {
    return rng_ctr_[off_[ui] + slot]++;
  }

 private:
  void grow_row() {
    arrival_.push_back(0.0);
    seq_.push_back(kDeadSeq);
    cls_.push_back(0);
    sampled_.push_back(0);
    aborted_.push_back(0);
    off_.push_back(0);
    nslots_.push_back(0);
    seq_pos_.push_back(0);
    live_parts_.push_back(0);
    stage_start_.push_back(0.0);
    download_accum_.push_back(0.0);
    last_completion_.push_back(0.0);
    rho_.push_back(0.0);
    cheater_.push_back(0);
    adaptive_.push_back(0);
    vseed_target_.push_back(0);
    up_base_.push_back(0.0);
    up_mark_.push_back(0.0);
    rv_base_.push_back(0.0);
    rv_mark_.push_back(0.0);
    hi_streak_.push_back(0);
    lo_streak_.push_back(0);
    live_pos_.push_back(0);
  }

  void ensure_slot_capacity(std::size_t need) {
    if (state_.size() >= need) return;
    const std::size_t cap =
        std::max(need, state_.size() + state_.size() / 2 + 64);
    files_.resize(cap, 0);
    state_.resize(cap, SlotState::kIdle);
    sched_gen_.resize(cap, 0);
    inst_.resize(cap, 0);
    gid_.resize(cap, 0);
    target_.resize(cap, 0.0);
    done_.resize(cap, 0);
    rng_ctr_.resize(cap, 0);
  }

  SlotArena arena_;
  std::vector<std::size_t> free_rows_;  ///< LIFO recycled user ids

  // Scalar columns (indexed by user id).
  std::vector<double> arrival_;
  std::vector<std::uint64_t> seq_;
  std::vector<unsigned> cls_;
  std::vector<std::uint8_t> sampled_;
  std::vector<std::uint8_t> aborted_;
  std::vector<std::size_t> off_;        ///< slot-span offset
  std::vector<unsigned> nslots_;        ///< slot-span length
  std::vector<unsigned> seq_pos_;
  std::vector<unsigned> live_parts_;
  std::vector<double> stage_start_;
  std::vector<double> download_accum_;
  std::vector<double> last_completion_;
  std::vector<double> rho_;
  std::vector<std::uint8_t> cheater_;
  std::vector<std::uint8_t> adaptive_;
  std::vector<unsigned> vseed_target_;
  std::vector<double> up_base_;
  std::vector<double> up_mark_;
  std::vector<double> rv_base_;
  std::vector<double> rv_mark_;
  std::vector<unsigned> hi_streak_;
  std::vector<unsigned> lo_streak_;
  std::vector<std::size_t> live_pos_;

  // Slot columns (indexed by arena offset + slot).
  std::vector<unsigned> files_;
  std::vector<SlotState> state_;
  std::vector<std::uint32_t> sched_gen_;
  std::vector<std::uint32_t> inst_;
  std::vector<std::size_t> gid_;
  std::vector<double> target_;
  std::vector<std::uint8_t> done_;
  std::vector<std::uint32_t> rng_ctr_;
};

}  // namespace btmf::sim
