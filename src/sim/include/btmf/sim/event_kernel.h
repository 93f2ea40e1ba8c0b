// Unified discrete-event kernel of the flow-level simulator.
//
// One kernel drives all four downloading schemes (MTCD, MTSD, MFCD,
// CMFSD). The kernel owns the machinery every scheme shares — Poisson
// arrivals, binomial file-set sampling, user lifecycle, the seed-departure
// queue, abort clocks, warmup-aware population integrals and SimResult
// accumulation — while a SchemePolicy supplies only the scheme-specific
// rules: how arrivals start downloads, how service rates are allocated,
// and what happens when a download completes or a seed departs.
//
// User state lives in a struct-of-arrays UserPool (user_pool.h): dense
// user ids over columnar storage, slot state in arena-backed spans, rows
// recycled through a free list once a user retires (in every kernel, so
// the columns stay sized to the peak live population). Queue entries
// carry the user's admission sequence number and are invalidated by
// comparing it first, so recycled rows can never be confused with their
// previous tenants; every queue orders ties by seq, never by row id.
//
// Incremental rate scheduling
// ---------------------------
// In a flow-level model a peer's download rate changes only when its
// torrent's population or pooled seed bandwidth changes — not per event.
// The kernel therefore never rescans live peers. Downloads that share a
// rate are grouped into a ServiceGroup g that accumulates service
//
//     S_g(t) = integral of rate_g over time,
//
// advanced lazily (acc/last_t) whenever the group is touched. A download
// with `work` units of service entering at t0 completes when S_g reaches
// S_g(t0) + work, and the group's earliest candidate *time* lives in an
// indexed priority queue across groups. A rate change ("rate epoch")
// syncs S_g, swaps the slope and re-keys one entry of that queue —
// O(log G) instead of O(live peers).
//
// Inside a group, pending targets are queued in FIFO *lanes*, one per
// distinct `work` amount (MTSD and CMFSD start every download with the
// same work, MTCD one per class). acc never decreases and IEEE addition
// is monotone, so a lane's pushes arrive already sorted by target; equal
// targets are placed in (seq, slot) order by a short walk from the tail.
// Popping a lane is O(1), and a tiny heap of lane fronts picks the
// earliest lane. A download moved by move_service (Adapt regrouping)
// owes arbitrary remaining work, so it goes to the group's small spill
// min-heap instead; the group's earliest entry is the smaller of the
// lane-heap top and the spill top, in the same (target, seq, slot) order.
//
// An entry goes stale when its download ends or moves (per-slot
// generation counters; seq for recycled rows). end_service and
// move_service count each one they leave in the old group, and stale
// entries are popped lazily when they reach the top — but only while the
// group's counter is nonzero, so a group without invalidations (every
// group of a run with no aborts and no Adapt) never reads a pool column
// to check its top.
//
// Invariant: between rate epochs, S_g is linear in t, so the candidate
// completion time of the group's smallest pending target is exact; a due
// test in *service* space (target - acc <= eps) rather than time space
// makes completions immune to float residue in recomputed candidates.
//
// Sharded (decomposed) execution
// ------------------------------
// A policy whose dynamics decompose per torrent (MtcdPolicy: every file
// of a user is an independent virtual peer) can run *decomposed*: the
// kernel is constructed with a ShardSpec and only materialises the slots
// of torrents it owns (torrent f belongs to shard f % count). Every
// shard replays the identical arrival process from cfg.seed — arrival
// times, file sets and the global admission sequence are bitwise equal
// across shards — while slot-level randomness (seed residences, abort
// deadlines) comes from counter-based streams keyed by (admission seq,
// file id), so a draw's value depends only on *which* download it is,
// never on shard layout or scheduling. A decomposed kernel also
// dispatches every event at its own time (the serial kernel's 1e-12
// simultaneity window would fold events of different torrents together
// only when one shard holds both). Shards therefore produce the
// same per-torrent event sequence for any shard count, and ShardedKernel
// (sharded_kernel.h) merges their ShardOutputs into a SimResult that is
// bit-identical for any shards x threads configuration. See
// docs/SCALE.md for the full determinism contract.
//
// Fault injection
// ---------------
// A SimConfig::faults plan compiles into a sorted timeline of fault
// *edges* (outage start/end, seed failure/recovery, churn instant,
// degradation start/end) that participate in the next-event race like any
// other clock. Tracker outages gate the arrival path inside the kernel;
// seed failures drain the seed-departure queue and clamp new residences
// to "depart immediately" while the window is open; churn bursts crash a
// random subset of downloading users through the policy's on_fault_crash
// hook and queue their re-arrivals; bandwidth windows reach the policies
// through on_fault_bandwidth. An empty plan leaves the kernel bit-
// identical to the pre-fault-layer behaviour.
//
// The paranoid auditor (SimConfig::paranoid, forced by -DBTMF_PARANOID)
// re-walks the service-group integrals, lane order, the lane-head and
// spill heaps, the stale counters, the cross-group heap, the live-list
// cross-references, every queue entry's slot range and the policy's own
// pool bookkeeping after every dispatch round, throwing btmf::AuditError
// at the event that corrupted state instead of 10^6 events later.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "btmf/obs/sink.h"
#include "btmf/sim/config.h"
#include "btmf/sim/indexed_heap.h"
#include "btmf/sim/rng.h"
#include "btmf/sim/stats.h"
#include "btmf/sim/user_pool.h"
#include "btmf/util/error.h"

namespace btmf::sim {

class EventKernel;

/// Placement of one kernel instance in a sharded run. The default spec
/// (one shard, not decomposed) is the classic serial kernel, bit-for-bit.
struct ShardSpec {
  unsigned index = 0;       ///< this shard's id in [0, count)
  unsigned count = 1;       ///< total shards
  bool decomposed = false;  ///< torrent-decomposed execution mode
};

/// One retired (or horizon-censored) user as reported by a decomposed
/// shard. A user whose files span shards yields one closure per shard;
/// ShardedKernel folds same-seq closures with order-insensitive rules
/// (any-censored, any-aborted, max-online, max-download), so the merge
/// is invariant to shard layout.
struct ShardClosure {
  std::uint64_t seq = 0;   ///< admission sequence (global, shard-invariant)
  unsigned cls = 0;        ///< logical class (files the user requested)
  std::uint8_t aborted = 0;
  std::uint8_t censored = 0;
  double online = 0.0;     ///< retire time - arrival time
  double download = 0.0;   ///< scheme-defined download span
};

/// Raw per-shard output of a decomposed run, merged by ShardedKernel.
/// Population integrals are per (torrent, class) cell so the merge can
/// sum them in ascending torrent order — a float-deterministic order
/// that does not depend on how torrents were distributed over shards.
struct ShardOutput {
  std::vector<double> down_integral;  ///< K*K cells, torrent*K + (cls-1)
  std::vector<double> seed_integral;
  std::vector<ShardClosure> closures;
  std::vector<std::size_t> arrivals_by_class;  ///< sampled admissions
  std::size_t total_arrivals = 0;
  std::size_t prim_events = 0;  ///< events dispatched, owner-counted
  std::size_t rate_epochs = 0;

  // Population sample grid (identical across shards) and the series
  // recorded on it, one row each; per-class series merge by elementwise
  // sum.
  std::vector<double> sample_time;
  std::vector<std::vector<double>> down_series;  ///< per class
  std::vector<std::vector<double>> seed_series;  ///< per class
  std::vector<double> live_series;
  std::vector<double> queue_series;
  std::vector<double> recovering_series;

  // Fault/recovery counters. Fault plans force a single shard, so these
  // are only ever nonzero on shard 0.
  std::size_t faults_injected = 0;
  std::size_t downloads_killed = 0;
  std::size_t arrivals_dropped = 0;
  std::size_t arrivals_queued = 0;
  std::size_t readmissions = 0;
  std::size_t readmission_queue_peak = 0;
  std::size_t faults_unrecovered = 0;
  double time_to_recover = 0.0;
};

/// Scheme-specific rules plugged into the kernel. Implementations live in
/// policy_multi_torrent.cpp / policy_cmfsd.cpp; see docs/MODELS.md for the
/// recipe for adding a new one.
class SchemePolicy {
 public:
  virtual ~SchemePolicy() = default;

  /// Called once before the run; store the kernel and size pool state.
  virtual void attach(EventKernel& kernel) { kernel_ = &kernel; }

  /// A user with a non-empty file set arrived (already in the live list);
  /// draw scheme-specific randomness, start downloads, update populations.
  virtual void on_arrival(std::size_t ui, double t) = 0;

  /// Re-derive the rates of groups whose pools changed since the last
  /// call. Runs once per loop iteration, before the next event time is
  /// chosen; must be a no-op when nothing is dirty.
  virtual void refresh_rates(double t) = 0;

  /// The download in `slot` reached its service target (the kernel has
  /// already unscheduled it).
  virtual void on_complete(std::size_t ui, unsigned slot, double t) = 0;

  /// The abort clock of `slot` fired before the download finished.
  virtual void on_abort(std::size_t ui, unsigned slot, double t) = 0;

  /// A seed residence ended. `file_idx` is the slot that was seeding, or
  /// EventKernel::kAllFiles for MFCD's joint departure.
  virtual void on_seed_departure(std::size_t ui, unsigned file_idx,
                                 double t) = 0;

  // ---- fault hooks ------------------------------------------------------
  /// A churn burst crashed this user. The policy must tear down every
  /// download/seeding slot: unschedule services, release pool
  /// contributions, fix populations and the active-peer count, and leave
  /// every slot kIdle. It must NOT retire the user or draw randomness —
  /// the kernel removes the user from the live list and schedules the
  /// re-arrival itself (using SimUser::done to decide what survives).
  virtual void on_fault_crash(std::size_t /*ui*/, double /*t*/) {
    throw ConfigError(
        "this scheme policy does not implement churn-burst faults");
  }

  /// A bandwidth-degradation window opened (scale < 1) or closed
  /// (scale = 1): every peer's mu and c are multiplied by `scale` from
  /// time t on. The policy re-derives all service rates accordingly.
  virtual void on_fault_bandwidth(double /*scale*/, double /*t*/) {
    throw ConfigError(
        "this scheme policy does not implement bandwidth faults");
  }

  /// Paranoid auditor: recount the policy's pool bookkeeping (per-torrent
  /// weights, seed bandwidth, populations) from first principles and
  /// throw btmf::AuditError on any mismatch. Default: no policy state.
  virtual void audit(double /*t*/) {}

  /// False for policies that bypass the kernel's service groups and run
  /// their own completion scheduler (MFCD); the kernel auditor then skips
  /// the per-slot group cross-checks.
  [[nodiscard]] virtual bool kernel_scheduled() const { return true; }

  /// True when the scheme's dynamics decompose per torrent — no state is
  /// shared between torrents beyond the arrival process — so the policy
  /// can run under ShardedKernel's decomposed mode. Policies that opt in
  /// must take slot-level randomness from EventKernel::slot_exponential
  /// and keep populations through note_download/note_seed.
  [[nodiscard]] virtual bool shardable() const { return false; }

  /// Next scheme-driven event (CMFSD's Adapt tick); +inf when none.
  [[nodiscard]] virtual double next_policy_event_time() const {
    return std::numeric_limits<double>::infinity();
  }
  virtual void on_policy_event(double /*t*/) {}

  /// Populations are counted in virtual peers for the concurrent schemes
  /// and users for the sequential ones; this is the divisor turning the
  /// class-k Little's-law sojourn into a per-file time.
  [[nodiscard]] virtual double little_divisor(double files) const = 0;

 protected:
  EventKernel* kernel_ = nullptr;
};

/// The shared event loop. Construct with a validated config and a policy,
/// then either call run() exactly once, or — for a decomposed shard —
/// start() / run_until(epoch boundaries) / shard_finish().
class EventKernel {
 public:
  static constexpr unsigned kAllFiles = std::numeric_limits<unsigned>::max();

  EventKernel(const SimConfig& config, SchemePolicy& policy,
              ShardSpec shard = {});

  SimResult run();

  // ---- sharded execution -------------------------------------------------
  /// Arms the arrival process; call once before the first run_until.
  void start();
  /// Advances the event loop to min(t_end, horizon) and pauses exactly at
  /// t_end (an epoch end). run() is start() + run_until(horizon).
  void run_until(double t_end);
  /// Collects the decomposed shard's raw output (closures, population
  /// integrals, sample series, counters) after run_until(horizon).
  [[nodiscard]] ShardOutput shard_finish();
  /// Simulation clock after the last run_until — equals the epoch end it
  /// paused at (checked by the sharded paranoid auditor).
  [[nodiscard]] double current_time() const { return cur_t_; }

  // ---- services for policies --------------------------------------------
  [[nodiscard]] const SimConfig& cfg() const { return cfg_; }
  /// Telemetry sinks (copied from cfg.obs). Probe sites must pointer-check
  /// each pillar: `if (kernel.obs().metrics) ...` — observation never
  /// draws RNG and never changes event times (inert-by-default contract).
  [[nodiscard]] const obs::ObsSink& obs() const { return obs_; }
  RandomStream& rng() { return rng_; }
  StatsCollector& stats() { return stats_; }
  /// View of one user's pooled state (cheap reference bundle, return by
  /// value). Spans stay valid across policy callbacks; they are refreshed
  /// by fetching a new view after any admission.
  SimUser user(std::size_t ui) { return pool_.view(ui); }
  [[nodiscard]] const std::vector<std::size_t>& live() const { return live_; }
  std::vector<double>& down_pop() { return down_pop_; }
  std::vector<double>& seed_pop() { return seed_pop_; }
  /// The bandwidth class user `ui` drew at admission (index into
  /// cfg().bandwidth_classes; always 0 when the class list is empty, i.e.
  /// the homogeneous single class). Drawn from the shared arrival stream
  /// before the decomposed ownership filter, so every shard assigns the
  /// same class to the same admission sequence.
  [[nodiscard]] unsigned bandwidth_class(std::size_t ui) const {
    return bclass_.empty() ? 0 : bclass_[ui];
  }

  // ---- sharding services ------------------------------------------------
  [[nodiscard]] bool decomposed() const { return shard_.decomposed; }
  [[nodiscard]] unsigned shard_index() const { return shard_.index; }
  [[nodiscard]] unsigned shard_count() const { return shard_.count; }
  /// True when torrent `f`'s events belong to this kernel instance.
  [[nodiscard]] bool owns_torrent(unsigned f) const {
    return !shard_.decomposed || shard_.count <= 1 ||
           f % shard_.count == shard_.index;
  }
  /// Exp(rate) variate for (ui, slot). Decomposed kernels draw from the
  /// counter stream keyed by (admission seq, file id) — the value depends
  /// only on which download is drawing and how many draws it made, never
  /// on shard layout. Legacy kernels fall back to the shared stream.
  double slot_exponential(std::size_t ui, unsigned slot, double rate);
  /// Decomposed population bookkeeping: a class-`cls` user's virtual peer
  /// on `torrent` started (+1) or stopped (-1) downloading / seeding at t.
  /// Maintains the warmup-clamped per-(torrent, class) time integrals and
  /// the instantaneous per-class counts behind the sample series.
  void note_download(unsigned torrent, unsigned cls, int delta, double t);
  void note_seed(unsigned torrent, unsigned cls, int delta, double t);
  /// Instantaneous decomposed per-class counts (k is 0-based).
  [[nodiscard]] std::int64_t down_count(unsigned k) const {
    return down_cnt_[k];
  }
  [[nodiscard]] std::int64_t seed_count(unsigned k) const {
    return seed_cnt_[k];
  }

  /// Creates an empty service group (rate 0) whose integral starts at `t`.
  std::size_t new_group(double t);
  /// Sets a group's rate, advancing its service integral to `t` first.
  void set_group_rate(std::size_t gid, double rate, double t);
  /// Adds `delta` to a group's rate, for policies that maintain a summed
  /// rate by increments.
  void add_group_rate(std::size_t gid, double delta, double t);
  [[nodiscard]] double group_rate(std::size_t gid) const {
    return groups_[gid].rate;
  }

  /// Schedules `work` units of service for (ui, slot) in group `gid` and
  /// marks the slot downloading. Starts a fresh download instance: any
  /// previous abort clock of the slot is invalidated.
  void begin_service(std::size_t ui, unsigned slot, std::size_t gid,
                     double work, double t);
  /// Moves an in-flight download to another group, preserving its abort
  /// clock (CMFSD re-grouping when rho changes).
  void move_service(std::size_t ui, unsigned slot, std::size_t gid,
                    double work, double t);
  /// Forgets the scheduled completion and abort clock of (ui, slot).
  /// The caller updates SlotState itself.
  void end_service(std::size_t ui, unsigned slot);
  /// Service still owed to (ui, slot) at time `t` (>= 0).
  [[nodiscard]] double remaining_work(std::size_t ui, unsigned slot, double t);

  /// Draws an Exp(abort_rate) deadline for the slot's current download
  /// instance; no-op (and no RNG draw) when abort_rate == 0.
  void arm_abort(std::size_t ui, unsigned slot, double t);

  /// Queues a seed residence ending at `when`. During a seed-failure
  /// window the residence is cut short: it fires at the current time
  /// instead (seeding is impossible while the infrastructure is down).
  void schedule_seed_departure(std::size_t ui, unsigned file_idx, double when);

  /// Policies that run their own incremental scheduler (MFCD's kinetic
  /// per-user wakes) report their rate epochs through this.
  void add_rate_epochs(std::size_t n) { rate_epochs_ += n; }

  /// Tracks the concurrent peer count (virtual peers for the concurrent
  /// schemes, users for the sequential ones) and throws SolverError when
  /// it exceeds cfg.max_active_peers. Decomposed shards each count the
  /// virtual peers they own, so the guard applies per shard.
  void add_active_peers(std::size_t n);
  void remove_active_peers(std::size_t n) { active_peer_count_ -= n; }

  /// Removes the user from the live list, records its visit and recycles
  /// its pool row: aborted users are only counted, completed ones feed
  /// the sample statistics, and a decomposed kernel records a
  /// ShardClosure instead. The row id may name a new user from the next
  /// admission on.
  void retire_user(std::size_t ui, double t, double download,
                   double final_rho, bool adaptive);

  /// Paranoid invariant audit of the kernel structures and the policy's
  /// pools; throws btmf::AuditError with a diagnosis on violation. Runs
  /// automatically after every dispatch round when cfg.paranoid is set
  /// (or the library was built with -DBTMF_PARANOID).
  void audit(double t);

 private:
  struct PendingEntry {
    double target = 0.0;
    std::uint64_t seq = 0;
    std::size_t ui = 0;
    unsigned slot = 0;
    std::uint32_t gen = 0;
    /// (target, seq, slot) lexicographic order keeps simultaneous
    /// completions deterministic; admission order (seq) is stable under
    /// user-row recycling where raw pool ids are not.
    bool operator>(const PendingEntry& o) const {
      if (target != o.target) return target > o.target;
      if (seq != o.seq) return seq > o.seq;
      return slot > o.slot;
    }
  };

  /// Queued downloads of one group that all asked for the same `work`,
  /// kept in (target, seq, slot) order; items[head..] are queued.
  struct Lane {
    double work = 0.0;
    std::size_t head = 0;
    std::vector<PendingEntry> items;
    [[nodiscard]] bool empty() const { return head == items.size(); }
    [[nodiscard]] const PendingEntry& front() const { return items[head]; }
  };

  /// A non-empty lane in its group's lane-head heap, keyed by a copy of
  /// the lane's front entry so sifting never leaves the heap array.
  struct LaneHead {
    PendingEntry front;
    std::size_t lane = 0;
  };

  /// The group's queued entries are the union of its FIFO lanes and the
  /// spill heap (std::greater min-heap maintained with the <algorithm>
  /// primitives); the earliest of them is the lane-head heap's top or the
  /// spill top, whichever is smaller.
  struct ServiceGroup {
    double rate = 0.0;
    double acc = 0.0;     ///< S_g at last_t
    double last_t = 0.0;
    std::vector<Lane> lanes;
    std::vector<LaneHead> heads;      ///< min-heap over the non-empty lanes
    std::vector<PendingEntry> spill;  ///< moved downloads, any target
    std::size_t stale = 0;            ///< queued entries that are stale
    [[nodiscard]] bool empty() const { return heads.empty() && spill.empty(); }
  };

  struct AbortEntry {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::size_t ui = 0;
    unsigned slot = 0;
    std::uint32_t inst = 0;
    bool operator>(const AbortEntry& o) const {
      if (time != o.time) return time > o.time;
      if (seq != o.seq) return seq > o.seq;
      return slot > o.slot;
    }
  };

  struct SeedDeparture {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::size_t ui = 0;
    unsigned file_idx = 0;
    bool operator>(const SeedDeparture& o) const {
      if (time != o.time) return time > o.time;
      if (seq != o.seq) return seq > o.seq;
      return file_idx > o.file_idx;
    }
  };

  /// One endpoint of a scheduled fault: the timeline below is the plan
  /// compiled to sorted edges. Kind order breaks time ties so "outage
  /// ends" dispatches before "next outage begins" at the same instant.
  struct FaultEdge {
    double time = 0.0;
    enum class Kind : std::uint8_t {
      kTrackerUp,
      kTrackerDown,
      kSeedUp,
      kSeedDown,
      kBandwidthUp,
      kBandwidthDown,
      kChurn,
    } kind = Kind::kChurn;
    std::size_t idx = 0;  ///< index into the plan's vector for this kind
    bool operator<(const FaultEdge& o) const {
      if (time != o.time) return time < o.time;
      if (kind != o.kind) return kind < o.kind;
      return idx < o.idx;
    }
  };

  /// A user waiting to (re-)enter the swarm: a tracker-outage visitor
  /// retrying after the outage (empty `files` — the file set is drawn at
  /// admission) or a crashed peer re-arriving with its unfinished files.
  struct Readmission {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< injection order; breaks time ties
    std::vector<unsigned> files;
    bool operator>(const Readmission& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  /// Lazy warmup-clamped integral of one decomposed (torrent, class)
  /// population cell: cnt held constant since mark.
  struct PopCell {
    double integ = 0.0;
    double mark = 0.0;
    std::int64_t cnt = 0;
  };

  void sync_group(ServiceGroup& g, double t) {
    if (t > g.last_t) {
      g.acc += g.rate * (t - g.last_t);
      g.last_t = t;
    }
  }
  /// Due test in service space; immune to float residue in candidate
  /// times recomputed across rate epochs.
  [[nodiscard]] static bool due(double target, double acc) {
    return target - acc <= 1e-9 * std::max(1.0, std::abs(target));
  }
  /// Earliest queued entry of a non-empty group, live or stale.
  [[nodiscard]] static const PendingEntry& group_top(const ServiceGroup& g) {
    if (g.heads.empty()) return g.spill.front();
    const PendingEntry& lane_top = g.heads.front().front;
    if (!g.spill.empty() && lane_top > g.spill.front()) {
      return g.spill.front();
    }
    return lane_top;
  }
  /// Removes group_top(g).
  static void pop_group(ServiceGroup& g);
  /// Queues a begin_service entry in the lane of its `work`.
  static void push_lane(ServiceGroup& g, double work, const PendingEntry& e);
  /// seq first: a recycled row must be recognised as stale before any
  /// slot column of its new tenant is consulted.
  [[nodiscard]] bool is_live(const PendingEntry& e) const {
    return pool_.seq(e.ui) == e.seq && pool_.sched_gen(e.ui, e.slot) == e.gen;
  }
  /// Pops stale entries off the top of the group; returns at once while
  /// the group's stale counter says none is queued.
  void drop_stale_pending(ServiceGroup& g);
  /// Re-derives the group's earliest candidate completion time and
  /// re-keys it in the cross-group queue.
  void update_candidate(std::size_t gid);

  /// Next visit time strictly after `t`. Homogeneous arrivals draw one
  /// Exp(visit_rate) gap — exactly the pre-demand-model stream, bit for
  /// bit. Time-varying processes sample by thinning against the peak
  /// rate; every extra draw lives on this gated path only.
  double next_arrival_after(double t);
  void process_arrival(double t);
  /// Creates a user requesting `files` at time t and hands it to the
  /// policy; shared by organic arrivals and fault re-admissions. A
  /// decomposed kernel advances the global admission sequence for every
  /// arrival but only materialises users with at least one owned file.
  void admit_user(std::span<const unsigned> files, double t);
  void drain_completions(double t);
  void drain_aborts(double t);
  /// Earliest valid abort deadline; pops stale entries.
  double peek_abort();

  void flush_cell(PopCell& c, double t) {
    if (t > c.mark) {
      const double lo = std::max(c.mark, cfg_.warmup);
      if (t > lo) c.integ += static_cast<double>(c.cnt) * (t - lo);
      c.mark = t;
    }
  }

  // ---- fault machinery --------------------------------------------------
  void build_fault_timeline();
  [[nodiscard]] double next_fault_time() const {
    return fault_cursor_ < fault_timeline_.size()
               ? fault_timeline_[fault_cursor_].time
               : std::numeric_limits<double>::infinity();
  }
  void process_fault_edges(double t);
  void apply_tracker_down(const TrackerOutageFault& f);
  void apply_tracker_up(const TrackerOutageFault& f, double t);
  void apply_seed_down(double t);
  void apply_churn(const ChurnBurstFault& f, double t);
  [[nodiscard]] double next_readmission_time() const {
    return readmissions_.empty()
               ? std::numeric_limits<double>::infinity()
               : readmissions_.front().time;
  }
  void drain_readmissions(double t);
  void push_readmission(double when, std::vector<unsigned> files);
  void note_readmission_peak();
  /// Opens a recovery episode if the fault edge dented the population;
  /// closes it once the live peer count regains the reference level.
  void begin_recovery_watch(std::size_t pre_fault_peers, double t);
  void update_recovery_watch(double t);

  // ---- telemetry --------------------------------------------------------
  /// Appends one sample of every population series at sim-time `when`
  /// (left limits: the piecewise-constant value before the dispatch).
  void record_sample(double when);
  /// Ends the open batched "kernel.dispatch" trace span, stamping the
  /// number of dispatch rounds it covered.
  void flush_dispatch_span();
  /// End-of-run export: counters/gauges/series into the attached sinks
  /// and the population trajectories into `result`.
  void export_observations(SimResult& result);

  /// End of a legacy (non-decomposed) run: census, finalize, export.
  SimResult finish();

  void add_live(std::size_t ui) {
    pool_.live_pos(ui) = live_.size();
    live_.push_back(ui);
  }
  void remove_live(std::size_t ui) {
    const std::size_t pos = pool_.live_pos(ui);
    live_[pos] = live_.back();
    pool_.live_pos(live_[pos]) = pos;
    live_.pop_back();
  }

  SimConfig cfg_;
  SchemePolicy& policy_;
  ShardSpec shard_;
  RandomStream rng_;
  StatsCollector stats_;

  UserPool pool_;
  std::vector<std::size_t> live_;
  std::uint64_t next_seq_ = 0;  ///< global admission sequence

  std::vector<ServiceGroup> groups_;
  IndexedMinHeap candidates_;  ///< group id -> earliest completion time

  /// std::greater min-heaps maintained with the <algorithm> primitives.
  std::vector<AbortEntry> abort_queue_;
  std::vector<SeedDeparture> seed_queue_;

  std::vector<double> down_pop_;
  std::vector<double> seed_pop_;

  std::size_t total_arrivals_ = 0;
  std::size_t active_peer_count_ = 0;
  std::size_t rate_epochs_ = 0;
  std::size_t peak_live_peers_ = 0;

  // ---- event-loop state (persists across run_until epochs) --------------
  /// Events due within this window of the current time dispatch in one
  /// round: kTimeEps for a serial kernel, 0 for a decomposed one.
  double dispatch_eps_ = 0.0;
  bool started_ = false;
  double cur_t_ = 0.0;
  double next_arrival_ = 0.0;
  /// Peak of the (possibly time-varying) arrival rate — the thinning
  /// envelope. Equals cfg_.visit_rate for a homogeneous process.
  double arrival_peak_ = 0.0;
  std::vector<unsigned> scratch_files_;  ///< arrival draw, no per-event alloc
  std::vector<unsigned> scratch_owned_;  ///< decomposed ownership filter
  /// Per-user bandwidth class (parallel to the user pool); empty when
  /// cfg_.bandwidth_classes is empty so the homogeneous path allocates
  /// and draws nothing.
  std::vector<std::uint8_t> bclass_;

  // ---- decomposed-mode state --------------------------------------------
  std::uint64_t slot_root_ = 0;  ///< master key of the slot counter streams
  std::vector<PopCell> down_cells_;  ///< K*K, torrent*K + (cls-1)
  std::vector<PopCell> seed_cells_;
  std::vector<std::int64_t> down_cnt_;  ///< instantaneous, per class
  std::vector<std::int64_t> seed_cnt_;
  std::vector<std::size_t> arrivals_cls_;  ///< sampled admissions per class
  std::size_t prim_events_ = 0;
  /// The shard's output under construction: closures and population
  /// samples accumulate here during the run (the sample rows reserved up
  /// front), and shard_finish completes it and moves it out.
  ShardOutput shard_out_;

  // ---- telemetry state --------------------------------------------------
  obs::ObsSink obs_;            ///< cfg.obs copy; null pointers = inert
  /// Internal per-run recorder backing the SimResult population
  /// trajectories of a serial kernel — always on (deterministic, a few
  /// hundred samples); exported into obs_.recorder at the end of the run
  /// when one is set. A decomposed kernel samples into shard_out_ instead
  /// and leaves this null.
  std::unique_ptr<obs::TimeSeriesRecorder> sampler_;
  std::vector<obs::SeriesId> down_series_;   ///< per class
  std::vector<obs::SeriesId> seed_series_;   ///< per class
  obs::SeriesId live_series_ = 0;
  obs::SeriesId queue_series_ = 0;
  obs::SeriesId recovering_series_ = 0;
  /// The configured lambda(t) sampled on the population cadence — makes
  /// time-varying demand visible next to the populations it drives.
  /// Pure configuration readout: no RNG, no event-time changes.
  obs::SeriesId arrival_series_ = 0;
  double sample_dt_ = 0.0;
  double next_sample_ = 0.0;
  /// Histogram ids, resolved up front when obs_.metrics is attached.
  obs::MetricId hist_online_ = 0;
  obs::MetricId hist_download_ = 0;
  obs::MetricId hist_files_ = 0;
  std::optional<obs::TraceWriter::Span> dispatch_span_;
  std::size_t dispatch_rounds_ = 0;  ///< rounds inside dispatch_span_

  // ---- fault state ------------------------------------------------------
  std::vector<FaultEdge> fault_timeline_;
  std::size_t fault_cursor_ = 0;
  bool paranoid_ = false;
  /// Auditor scratch: audit_marks_[slot_index] == audit_stamp_ once the
  /// current audit met a live queue entry of that slot.
  std::vector<std::uint64_t> audit_marks_;
  std::uint64_t audit_stamp_ = 0;
  bool tracker_down_ = false;
  bool tracker_drop_ = false;       ///< drop vs queue during the outage
  std::size_t tracker_queue_ = 0;   ///< visitors waiting for the tracker
  bool seed_down_ = false;
  double now_ = 0.0;                ///< current dispatch time (seed clamp)
  std::vector<Readmission> readmissions_;  ///< std::greater min-heap
  std::uint64_t readmission_seq_ = 0;

  std::size_t faults_injected_ = 0;
  std::size_t downloads_killed_ = 0;
  std::size_t arrivals_dropped_ = 0;
  std::size_t arrivals_queued_ = 0;
  std::size_t readmissions_count_ = 0;
  std::size_t readmission_queue_peak_ = 0;
  bool recovering_ = false;
  std::size_t recover_ref_ = 0;     ///< pre-fault live peer count
  double recovery_start_ = 0.0;
  double time_to_recover_ = 0.0;
  std::size_t faults_unrecovered_ = 0;
};

}  // namespace btmf::sim
