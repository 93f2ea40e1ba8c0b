#include "btmf/sim/event_kernel.h"

#include <sstream>
#include <string>

#include "btmf/parallel/seeds.h"
#include "btmf/util/check.h"
#include "btmf/util/error.h"
#include "btmf/util/stopwatch.h"

namespace btmf::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// A serial kernel dispatches events within this window of the current
/// time together, matching the pre-refactor engines' simultaneity rule.
/// It is also the minimum lead of a not-yet-due completion candidate.
constexpr double kTimeEps = 1e-12;

const std::greater<> kMinHeap{};

/// A lane compacts its consumed prefix once it is at least this long and
/// at least half the lane, so pops stay O(1) amortised.
constexpr std::size_t kLaneCompactAt = 1024;

/// Most samples per row a decomposed kernel reserves before its first
/// event: twice the default grid (horizon / 4096), so a tiny
/// obs.sample_dt grows its rows as samples arrive instead of allocating
/// the whole grid up front.
constexpr std::size_t kSampleReserveCap = 8192;

template <class Head>
void sift_heads_up(std::vector<Head>& h, std::size_t i) {
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    if (!(h[p].front > h[i].front)) break;
    std::swap(h[p], h[i]);
    i = p;
  }
}

template <class Head>
void sift_heads_down(std::vector<Head>& h, std::size_t i) {
  const std::size_t n = h.size();
  for (;;) {
    std::size_t best = i;
    const std::size_t l = 2 * i + 1;
    if (l < n && h[best].front > h[l].front) best = l;
    if (l + 1 < n && h[best].front > h[l + 1].front) best = l + 1;
    if (best == i) return;
    std::swap(h[i], h[best]);
    i = best;
  }
}
}  // namespace

EventKernel::EventKernel(const SimConfig& config, SchemePolicy& policy,
                         ShardSpec shard)
    : cfg_(config),
      policy_(policy),
      shard_(shard),
      rng_(config.seed),
      stats_(config.num_files),
      down_pop_(config.num_files, 0.0),
      seed_pop_(config.num_files, 0.0) {
  cfg_.validate();
  // A decomposed kernel dispatches every event at its own time: batching
  // events of different torrents a few ulps apart would make the result
  // depend on which torrents share a shard.
  dispatch_eps_ = shard_.decomposed ? 0.0 : kTimeEps;
  paranoid_ = auditor_enabled(cfg_.paranoid);
  build_fault_timeline();

  if (shard_.decomposed) {
    slot_root_ = parallel::derive_seed(cfg_.seed, parallel::kSlotStreamDomain);
    const std::size_t k = cfg_.num_files;
    down_cells_.assign(k * k, {});
    seed_cells_.assign(k * k, {});
    down_cnt_.assign(k, 0);
    seed_cnt_.assign(k, 0);
    arrivals_cls_.assign(k, 0);
  }

  // Telemetry: the population sampling is always on (it backs the
  // SimResult trajectories and draws no randomness); the external sinks
  // stay null unless the caller attached them. Decomposed runs sample on
  // a finer default grid: the merged peak-peer gauge is read off it.
  obs_ = cfg_.obs;
  sample_dt_ = obs_.sample_dt > 0.0
                   ? obs_.sample_dt
                   : cfg_.horizon / (shard_.decomposed ? 4096.0 : 512.0);
  if (shard_.decomposed) {
    // One time axis and one row per series; the driver rebuilds the
    // arrival-rate series from the demand spec, so no shard samples it.
    const double grid = std::floor(cfg_.horizon / sample_dt_) + 2.0;
    const std::size_t reserve =
        grid < static_cast<double>(kSampleReserveCap)
            ? static_cast<std::size_t>(grid)
            : kSampleReserveCap;
    ShardOutput& o = shard_out_;
    o.sample_time.reserve(reserve);
    o.down_series.resize(cfg_.num_files);
    o.seed_series.resize(cfg_.num_files);
    for (unsigned k = 0; k < cfg_.num_files; ++k) {
      o.down_series[k].reserve(reserve);
      o.seed_series[k].reserve(reserve);
    }
    o.live_series.reserve(reserve);
    o.queue_series.reserve(reserve);
    o.recovering_series.reserve(reserve);
  } else {
    sampler_ = std::make_unique<obs::TimeSeriesRecorder>(0);  // exact cadence
    for (unsigned k = 0; k < cfg_.num_files; ++k) {
      const std::string cls = ".c" + std::to_string(k + 1);
      down_series_.push_back(sampler_->series("sim.downloaders" + cls));
      seed_series_.push_back(sampler_->series("sim.seeds" + cls));
    }
    live_series_ = sampler_->series("sim.live_peers");
    queue_series_ = sampler_->series("sim.readmission_queue");
    recovering_series_ = sampler_->series("sim.recovering");
    arrival_series_ = sampler_->series("kernel.arrival_rate");
  }
  arrival_peak_ = cfg_.arrival.peak_rate(cfg_.visit_rate);
  if (obs_.metrics != nullptr) {
    hist_online_ = obs_.metrics->histogram("sim.user_online_per_file");
    hist_download_ = obs_.metrics->histogram("sim.user_download_per_file");
    hist_files_ = obs_.metrics->histogram("sim.user_files");
  }

  policy_.attach(*this);
}

void EventKernel::build_fault_timeline() {
  const FaultPlan& plan = cfg_.faults;
  using Kind = FaultEdge::Kind;
  for (std::size_t i = 0; i < plan.tracker_outages.size(); ++i) {
    const TrackerOutageFault& f = plan.tracker_outages[i];
    fault_timeline_.push_back({f.start, Kind::kTrackerDown, i});
    fault_timeline_.push_back({f.start + f.duration, Kind::kTrackerUp, i});
  }
  for (std::size_t i = 0; i < plan.seed_failures.size(); ++i) {
    const SeedFailureFault& f = plan.seed_failures[i];
    fault_timeline_.push_back({f.start, Kind::kSeedDown, i});
    fault_timeline_.push_back({f.start + f.duration, Kind::kSeedUp, i});
  }
  for (std::size_t i = 0; i < plan.bandwidth_faults.size(); ++i) {
    const BandwidthFault& f = plan.bandwidth_faults[i];
    fault_timeline_.push_back({f.start, Kind::kBandwidthDown, i});
    fault_timeline_.push_back({f.start + f.duration, Kind::kBandwidthUp, i});
  }
  for (std::size_t i = 0; i < plan.churn_bursts.size(); ++i) {
    fault_timeline_.push_back({plan.churn_bursts[i].time, Kind::kChurn, i});
  }
  std::sort(fault_timeline_.begin(), fault_timeline_.end());
}

std::size_t EventKernel::new_group(double t) {
  groups_.emplace_back();
  groups_.back().last_t = t;
  candidates_.resize(groups_.size());
  return groups_.size() - 1;
}

void EventKernel::set_group_rate(std::size_t gid, double rate, double t) {
  ServiceGroup& g = groups_[gid];
  sync_group(g, t);
  if (rate != g.rate) {
    g.rate = rate;
    ++rate_epochs_;
    update_candidate(gid);
  }
}

void EventKernel::add_group_rate(std::size_t gid, double delta, double t) {
  if (delta == 0.0) return;
  ServiceGroup& g = groups_[gid];
  sync_group(g, t);
  g.rate = std::max(0.0, g.rate + delta);
  ++rate_epochs_;
  update_candidate(gid);
}

void EventKernel::pop_group(ServiceGroup& g) {
  if (g.heads.empty() ||
      (!g.spill.empty() && g.heads.front().front > g.spill.front())) {
    std::pop_heap(g.spill.begin(), g.spill.end(), kMinHeap);
    g.spill.pop_back();
    return;
  }
  Lane& lane = g.lanes[g.heads.front().lane];
  ++lane.head;
  if (lane.empty()) {
    lane.items.clear();
    lane.head = 0;
    g.heads.front() = g.heads.back();
    g.heads.pop_back();
  } else {
    g.heads.front().front = lane.front();
    if (lane.head >= kLaneCompactAt && 2 * lane.head >= lane.items.size()) {
      lane.items.erase(lane.items.begin(),
                       lane.items.begin() +
                           static_cast<std::ptrdiff_t>(lane.head));
      lane.head = 0;
    }
  }
  sift_heads_down(g.heads, 0);
}

void EventKernel::push_lane(ServiceGroup& g, double work,
                            const PendingEntry& e) {
  // Policies start downloads with a handful of distinct work amounts
  // (MTCD: one per class), so a linear lookup is enough.
  std::size_t li = 0;
  while (li < g.lanes.size() && g.lanes[li].work != work) ++li;
  if (li == g.lanes.size()) g.lanes.push_back({work, 0, {}});
  Lane& lane = g.lanes[li];
  const bool was_empty = lane.empty();
  // acc never decreases and IEEE addition is monotone, so e.target is no
  // smaller than any queued target of this lane; the walk only passes
  // equal targets with a larger (seq, slot).
  lane.items.push_back(e);
  std::size_t at = lane.items.size() - 1;
  while (at > lane.head && lane.items[at - 1] > e) {
    lane.items[at] = lane.items[at - 1];
    --at;
  }
  lane.items[at] = e;
  if (was_empty) {
    g.heads.push_back({e, li});
    sift_heads_up(g.heads, g.heads.size() - 1);
  } else if (at == lane.head) {
    std::size_t h = 0;
    while (g.heads[h].lane != li) ++h;
    g.heads[h].front = e;
    sift_heads_up(g.heads, h);
  }
}

void EventKernel::drop_stale_pending(ServiceGroup& g) {
  // Only end_service and move_service leave stale entries behind, and
  // each counts the one it leaves; with none outstanding the top is live
  // without reading a single pool column.
  while (g.stale != 0 && !g.empty() && !is_live(group_top(g))) {
    pop_group(g);
    --g.stale;
  }
}

void EventKernel::update_candidate(std::size_t gid) {
  ServiceGroup& g = groups_[gid];
  drop_stale_pending(g);
  if (g.empty()) {
    candidates_.erase(gid);
    return;
  }
  const PendingEntry& top = group_top(g);
  double when;
  if (due(top.target, g.acc)) {
    when = g.last_t;
  } else if (g.rate > 0.0) {
    // A not-yet-due target must land strictly outside the simultaneity
    // window, or the drain loop would re-derive the same candidate forever
    // when rate is so large that need/rate underflows kTimeEps.
    when = std::max(g.last_t + (top.target - g.acc) / g.rate,
                    g.last_t + 2.0 * kTimeEps);
  } else {
    candidates_.erase(gid);
    return;
  }
  candidates_.set(gid, when);
}

void EventKernel::begin_service(std::size_t ui, unsigned slot,
                                std::size_t gid, double work, double t) {
  SimUser u = pool_.view(ui);
  ServiceGroup& g = groups_[gid];
  sync_group(g, t);
  u.state[slot] = SlotState::kDownloading;
  ++u.sched_gen[slot];
  ++u.inst[slot];
  u.gid[slot] = gid;
  u.target[slot] = g.acc + work;
  push_lane(g, work, {u.target[slot], u.seq, ui, slot, u.sched_gen[slot]});
  update_candidate(gid);
}

void EventKernel::move_service(std::size_t ui, unsigned slot,
                               std::size_t gid, double work, double t) {
  SimUser u = pool_.view(ui);
  const std::size_t old_gid = u.gid[slot];
  ++u.sched_gen[slot];  // old entry goes stale; abort clock stays armed
  ++groups_[old_gid].stale;
  ServiceGroup& g = groups_[gid];
  sync_group(g, t);
  u.gid[slot] = gid;
  u.target[slot] = g.acc + work;
  // The remaining work is arbitrary, so the entry cannot join a lane.
  g.spill.push_back({u.target[slot], u.seq, ui, slot, u.sched_gen[slot]});
  std::push_heap(g.spill.begin(), g.spill.end(), kMinHeap);
  if (old_gid != gid) update_candidate(old_gid);
  update_candidate(gid);
}

void EventKernel::end_service(std::size_t ui, unsigned slot) {
  SimUser u = pool_.view(ui);
  ++u.sched_gen[slot];
  ++u.inst[slot];
  ++groups_[u.gid[slot]].stale;
  update_candidate(u.gid[slot]);
}

double EventKernel::remaining_work(std::size_t ui, unsigned slot, double t) {
  const SimUser u = pool_.view(ui);
  ServiceGroup& g = groups_[u.gid[slot]];
  sync_group(g, t);
  return std::max(0.0, u.target[slot] - g.acc);
}

double EventKernel::slot_exponential(std::size_t ui, unsigned slot,
                                     double rate) {
  if (!shard_.decomposed) return rng_.exponential(rate);
  // Keyed by (admission seq, file id): both are invariant to the shard
  // layout, so the same download draws the same variate at any shard
  // count — the core of the sharded determinism contract.
  const std::uint64_t key = parallel::derive_seed(
      parallel::derive_seed(slot_root_, pool_.seq(ui)), pool_.file(ui, slot));
  return parallel::counter_exponential(key, pool_.bump_rng_ctr(ui, slot),
                                       rate);
}

void EventKernel::note_download(unsigned torrent, unsigned cls, int delta,
                                double t) {
  PopCell& c =
      down_cells_[static_cast<std::size_t>(torrent) * cfg_.num_files +
                  (cls - 1)];
  flush_cell(c, t);
  c.cnt += delta;
  down_cnt_[cls - 1] += delta;
}

void EventKernel::note_seed(unsigned torrent, unsigned cls, int delta,
                            double t) {
  PopCell& c =
      seed_cells_[static_cast<std::size_t>(torrent) * cfg_.num_files +
                  (cls - 1)];
  flush_cell(c, t);
  c.cnt += delta;
  seed_cnt_[cls - 1] += delta;
}

void EventKernel::arm_abort(std::size_t ui, unsigned slot, double t) {
  if (cfg_.abort_rate <= 0.0) return;
  const double deadline = t + slot_exponential(ui, slot, cfg_.abort_rate);
  abort_queue_.push_back(
      {deadline, pool_.seq(ui), ui, slot, pool_.inst(ui, slot)});
  std::push_heap(abort_queue_.begin(), abort_queue_.end(), kMinHeap);
}

void EventKernel::schedule_seed_departure(std::size_t ui, unsigned file_idx,
                                          double when) {
  // While the seeding infrastructure is down, residences cannot start:
  // the departure fires immediately (the policy's RNG draw still
  // happened, so recovery re-synchronises with the clean-run stream).
  if (seed_down_) when = now_;
  seed_queue_.push_back({when, pool_.seq(ui), ui, file_idx});
  std::push_heap(seed_queue_.begin(), seed_queue_.end(), kMinHeap);
}

void EventKernel::add_active_peers(std::size_t n) {
  active_peer_count_ += n;
  if (active_peer_count_ > cfg_.max_active_peers) {
    throw SolverError(
        "simulation exceeded max_active_peers — the configuration is "
        "outside the stable region (offered load exceeds service capacity)");
  }
}

void EventKernel::retire_user(std::size_t ui, double t, double download,
                              double final_rho, bool adaptive) {
  remove_live(ui);
  if (shard_.decomposed) {
    if (pool_.sampled(ui)) {
      shard_out_.closures.push_back(
          {pool_.seq(ui), pool_.cls(ui),
           static_cast<std::uint8_t>(pool_.aborted(ui) ? 1 : 0), 0,
           t - pool_.arrival(ui), download});
    }
  } else if (pool_.sampled(ui) && pool_.aborted(ui)) {
    // Users who abandoned a download are not comparable to the fluid
    // per-class sojourn metrics; count them separately.
    stats_.record_aborted();
  } else if (pool_.sampled(ui)) {
    const unsigned cls = pool_.cls(ui);
    const double online = t - pool_.arrival(ui);
    if (obs_.metrics != nullptr) {
      const double files = static_cast<double>(cls);
      obs_.metrics->observe(hist_online_, online / files);
      obs_.metrics->observe(hist_download_, download / files);
      obs_.metrics->observe(hist_files_, files);
    }
    stats_.record_user(cls, cls, online, download, final_rho, adaptive);
  }
  pool_.release(ui);
}

void EventKernel::process_arrival(double t) {
  ++total_arrivals_;
  if (tracker_down_) {
    if (tracker_drop_) {
      ++arrivals_dropped_;
    } else {
      ++arrivals_queued_;
      ++tracker_queue_;
      note_readmission_peak();
    }
    return;
  }
  scratch_files_.clear();
  for (unsigned f = 0; f < cfg_.num_files; ++f) {
    if (rng_.bernoulli(cfg_.file_probability(f))) scratch_files_.push_back(f);
  }
  if (scratch_files_.empty()) return;  // visitor requested nothing
  admit_user(scratch_files_, t);
}

void EventKernel::admit_user(std::span<const unsigned> files, double t) {
  const unsigned cls = static_cast<unsigned>(files.size());
  const bool sampled = t >= cfg_.warmup;
  // The admission sequence advances for every admitted user in every
  // shard — shards replay the identical arrival stream, so seq is a
  // global, shard-invariant user identity.
  const std::uint64_t seq = next_seq_++;
  // The bandwidth-class draw shares the arrival stream and happens before
  // the decomposed ownership filter for the same reason seq does: every
  // shard must consume the identical draws to assign the same class to
  // the same admission. Gated so homogeneous runs draw nothing new.
  std::uint8_t bclass = 0;
  if (!cfg_.bandwidth_classes.empty()) {
    double pick =
        rng_.uniform() * fluid::total_weight(cfg_.bandwidth_classes);
    for (std::size_t b = 0; b + 1 < cfg_.bandwidth_classes.size(); ++b) {
      pick -= cfg_.bandwidth_classes[b].weight;
      if (pick < 0.0) break;
      ++bclass;
    }
  }
  const auto stamp_class = [this, bclass](std::size_t ui) {
    if (cfg_.bandwidth_classes.empty()) return;
    if (bclass_.size() <= ui) bclass_.resize(ui + 1, 0);
    bclass_[ui] = bclass;
  };
  if (shard_.decomposed) {
    if (sampled) ++arrivals_cls_[cls - 1];
    if (owns_torrent(files[0])) ++prim_events_;  // admission, home-counted
    scratch_owned_.clear();
    for (const unsigned f : files) {
      if (owns_torrent(f)) scratch_owned_.push_back(f);
    }
    if (scratch_owned_.empty()) return;  // no slot of ours; other shards'
    const std::size_t ui = pool_.create(scratch_owned_, cls, t, sampled, seq);
    stamp_class(ui);
    add_live(ui);
    policy_.on_arrival(ui, t);
    return;
  }
  const std::size_t ui = pool_.create(files, cls, t, sampled, seq);
  stamp_class(ui);
  if (sampled) stats_.record_arrival(cls);
  add_live(ui);
  policy_.on_arrival(ui, t);
}

double EventKernel::peek_abort() {
  while (!abort_queue_.empty()) {
    const AbortEntry& e = abort_queue_.front();
    if (pool_.seq(e.ui) == e.seq && pool_.inst(e.ui, e.slot) == e.inst &&
        pool_.state(e.ui, e.slot) == SlotState::kDownloading) {
      return e.time;
    }
    std::pop_heap(abort_queue_.begin(), abort_queue_.end(), kMinHeap);
    abort_queue_.pop_back();
  }
  return kInf;
}

void EventKernel::drain_completions(double t) {
  while (!candidates_.empty() && candidates_.top_key() <= t + dispatch_eps_) {
    const std::size_t gid = candidates_.top_id();
    ServiceGroup& g = groups_[gid];
    sync_group(g, t);
    drop_stale_pending(g);
    if (!g.empty() && due(group_top(g).target, g.acc)) {
      const PendingEntry e = group_top(g);
      pop_group(g);
      SimUser u = pool_.view(e.ui);
      ++u.sched_gen[e.slot];
      ++u.inst[e.slot];  // the abort clock lost the race
      policy_.on_complete(e.ui, e.slot, t);
      if (shard_.decomposed) ++prim_events_;
    }
    update_candidate(gid);
  }
}

void EventKernel::drain_aborts(double t) {
  while (peek_abort() <= t + dispatch_eps_) {
    const AbortEntry e = abort_queue_.front();
    std::pop_heap(abort_queue_.begin(), abort_queue_.end(), kMinHeap);
    abort_queue_.pop_back();
    policy_.on_abort(e.ui, e.slot, t);
    if (shard_.decomposed) ++prim_events_;
  }
}

// ---- fault machinery ------------------------------------------------------

void EventKernel::push_readmission(double when, std::vector<unsigned> files) {
  readmissions_.push_back({when, readmission_seq_++, std::move(files)});
  std::push_heap(readmissions_.begin(), readmissions_.end(), kMinHeap);
  note_readmission_peak();
}

void EventKernel::note_readmission_peak() {
  readmission_queue_peak_ =
      std::max(readmission_queue_peak_, tracker_queue_ + readmissions_.size());
}

void EventKernel::apply_tracker_down(const TrackerOutageFault& f) {
  tracker_down_ = true;
  tracker_drop_ = f.drop;
}

void EventKernel::apply_tracker_up(const TrackerOutageFault& f, double t) {
  tracker_down_ = false;
  // Every visitor queued during the outage retries independently with an
  // exponential backoff from the moment the tracker answers again.
  for (std::size_t i = 0; i < tracker_queue_; ++i) {
    push_readmission(t + rng_.exponential(f.readmit_rate), {});
  }
  tracker_queue_ = 0;
}

void EventKernel::apply_seed_down(double t) {
  seed_down_ = true;
  // The seeding infrastructure failed: every residence in flight ends now.
  // Dispatch in (time, seq, idx) order so the collapse is deterministic.
  std::vector<SeedDeparture> in_flight;
  in_flight.swap(seed_queue_);
  std::sort(in_flight.begin(), in_flight.end(),
            [](const SeedDeparture& a, const SeedDeparture& b) {
              return b > a;
            });
  for (const SeedDeparture& ev : in_flight) {
    if (pool_.seq(ev.ui) != ev.seq) continue;  // row recycled, entry stale
    const unsigned check = ev.file_idx == kAllFiles ? 0U : ev.file_idx;
    if (pool_.state(ev.ui, check) == SlotState::kSeeding) {
      policy_.on_seed_departure(ev.ui, ev.file_idx, t);
    }
  }
}

void EventKernel::apply_churn(const ChurnBurstFault& f, double t) {
  // Snapshot the victims first: the teardown swap-removes from the live
  // list, and the kill coin flips must be drawn in live order.
  std::vector<std::size_t> victims;
  for (const std::size_t ui : live_) {
    const SimUser u = pool_.view(ui);
    const bool downloading =
        std::any_of(u.state.begin(), u.state.end(), [](SlotState s) {
          return s == SlotState::kDownloading;
        });
    if (downloading && rng_.bernoulli(f.kill_fraction)) {
      victims.push_back(ui);
    }
  }
  for (const std::size_t ui : victims) {
    policy_.on_fault_crash(ui, t);
    remove_live(ui);
    ++downloads_killed_;
    const SimUser u = pool_.view(ui);
    // The peer re-arrives after a backoff, re-requesting everything it
    // had in flight plus every finished file the crash destroyed.
    std::vector<unsigned> refetch;
    for (unsigned s = 0; s < u.slots(); ++s) {
      if (u.done[s] != 0 && !rng_.bernoulli(f.progress_loss)) continue;
      refetch.push_back(u.files[s]);
    }
    pool_.release(ui);
    if (!refetch.empty()) {
      push_readmission(t + rng_.exponential(f.backoff_rate),
                       std::move(refetch));
    }
  }
}

void EventKernel::drain_readmissions(double t) {
  while (!readmissions_.empty() &&
         readmissions_.front().time <= t + dispatch_eps_) {
    std::pop_heap(readmissions_.begin(), readmissions_.end(), kMinHeap);
    Readmission r = std::move(readmissions_.back());
    readmissions_.pop_back();
    ++readmissions_count_;
    std::vector<unsigned> files = std::move(r.files);
    if (files.empty()) {
      // A tracker-outage visitor retrying: the file set is drawn now.
      for (unsigned f = 0; f < cfg_.num_files; ++f) {
        if (rng_.bernoulli(cfg_.file_probability(f))) files.push_back(f);
      }
      if (files.empty()) continue;  // requested nothing after all
    }
    admit_user(files, t);
  }
}

void EventKernel::process_fault_edges(double t) {
  using Kind = FaultEdge::Kind;
  while (fault_cursor_ < fault_timeline_.size() &&
         fault_timeline_[fault_cursor_].time <= t + dispatch_eps_) {
    const FaultEdge e = fault_timeline_[fault_cursor_++];
    const std::size_t pre_fault_peers = active_peer_count_;
    switch (e.kind) {
      case Kind::kTrackerDown:
        apply_tracker_down(cfg_.faults.tracker_outages[e.idx]);
        break;
      case Kind::kTrackerUp:
        apply_tracker_up(cfg_.faults.tracker_outages[e.idx], t);
        break;
      case Kind::kSeedDown:
        apply_seed_down(t);
        break;
      case Kind::kSeedUp:
        seed_down_ = false;
        break;
      case Kind::kBandwidthDown:
        policy_.on_fault_bandwidth(cfg_.faults.bandwidth_faults[e.idx].scale,
                                   t);
        break;
      case Kind::kBandwidthUp:
        policy_.on_fault_bandwidth(1.0, t);
        break;
      case Kind::kChurn:
        apply_churn(cfg_.faults.churn_bursts[e.idx], t);
        break;
    }
    ++faults_injected_;
    if (shard_.decomposed) ++prim_events_;
    if (obs_.trace != nullptr) {
      const char* name = "fault.churn";
      switch (e.kind) {
        case Kind::kTrackerDown: name = "fault.tracker_down"; break;
        case Kind::kTrackerUp: name = "fault.tracker_up"; break;
        case Kind::kSeedDown: name = "fault.seed_down"; break;
        case Kind::kSeedUp: name = "fault.seed_up"; break;
        case Kind::kBandwidthDown: name = "fault.bandwidth_down"; break;
        case Kind::kBandwidthUp: name = "fault.bandwidth_up"; break;
        case Kind::kChurn: name = "fault.churn"; break;
      }
      std::ostringstream args;
      args << "{\"sim_t\": " << t
           << ", \"live_peers\": " << active_peer_count_ << "}";
      obs_.trace->instant(name, args.str());
    }
    begin_recovery_watch(pre_fault_peers, t);
    // Corruption must surface at the fault that caused it, so the
    // auditor runs right at the edge, before any organic event.
    if (paranoid_) audit(t);
  }
}

void EventKernel::begin_recovery_watch(std::size_t pre_fault_peers,
                                       double t) {
  // Only faults that actually dent the population open an episode;
  // already-watching episodes keep their original reference level.
  if (!recovering_ && active_peer_count_ < pre_fault_peers) {
    recovering_ = true;
    recover_ref_ = pre_fault_peers;
    recovery_start_ = t;
  }
}

void EventKernel::update_recovery_watch(double t) {
  if (recovering_ && active_peer_count_ >= recover_ref_) {
    time_to_recover_ = std::max(time_to_recover_, t - recovery_start_);
    recovering_ = false;
  }
}

// ---- paranoid auditor -----------------------------------------------------

void EventKernel::audit(double t) {
  const auto fail = [&](const std::string& why) {
    std::ostringstream os;
    os << "paranoid audit failed at t = " << t << ": " << why;
    throw AuditError(os.str());
  };

  // Live-list cross-references.
  for (std::size_t pos = 0; pos < live_.size(); ++pos) {
    const std::size_t ui = live_[pos];
    if (ui >= pool_.size()) fail("live list references unknown user");
    if (pool_.seq(ui) == UserPool::kDeadSeq) {
      fail("live list references a released pool row");
    }
    if (pool_.live_pos(ui) != pos) {
      fail("live_pos cross-reference broken for user " + std::to_string(ui));
    }
  }

  // Cross-group candidate heap.
  std::string reason;
  if (!candidates_.validate(&reason)) fail("candidate heap: " + reason);

  // Service-group integrals, lanes, spill heaps and stale counters. Every
  // queued entry is walked once; each live one stamps its slot, and a
  // second stamp of the same slot is a duplicate.
  ++audit_stamp_;
  if (audit_marks_.size() < pool_.arena().capacity()) {
    audit_marks_.resize(pool_.arena().capacity(), 0);
  }
  for (std::size_t gid = 0; gid < groups_.size(); ++gid) {
    const ServiceGroup& g = groups_[gid];
    const std::string name = "group " + std::to_string(gid);
    if (!(std::isfinite(g.rate) && g.rate >= 0.0)) {
      fail(name + " has invalid rate");
    }
    if (!std::isfinite(g.acc)) fail(name + " integral is not finite");
    if (g.last_t > t + 1e-9) fail(name + " integral is ahead of time");
    if (!std::is_heap(g.spill.begin(), g.spill.end(), kMinHeap)) {
      fail(name + " spill heap order violated");
    }
    std::vector<char> headed(g.lanes.size(), 0);
    for (std::size_t h = 0; h < g.heads.size(); ++h) {
      const LaneHead& node = g.heads[h];
      if (node.lane >= g.lanes.size() || g.lanes[node.lane].empty() ||
          headed[node.lane] != 0) {
        fail(name + " lane-head heap names a lane it must not");
      }
      headed[node.lane] = 1;
      const PendingEntry& f = g.lanes[node.lane].front();
      if (node.front.target != f.target || node.front.seq != f.seq ||
          node.front.ui != f.ui || node.front.slot != f.slot ||
          node.front.gen != f.gen) {
        fail(name + " lane-head key diverged from its lane's front entry");
      }
      if (h > 0 && g.heads[(h - 1) / 2].front > node.front) {
        fail(name + " lane-head heap order violated");
      }
    }
    std::size_t stale = 0;
    bool has_valid = false;
    const auto walk = [&](const PendingEntry& e) {
      if (e.ui >= pool_.size()) fail("pending entry references unknown user");
      if (pool_.seq(e.ui) != e.seq) {  // row recycled, entry stale
        ++stale;
        return;
      }
      if (e.slot >= pool_.slots(e.ui)) fail("pending entry slot out of range");
      if (pool_.sched_gen(e.ui, e.slot) != e.gen) {
        ++stale;
        return;
      }
      has_valid = true;
      std::uint64_t& mark = audit_marks_[pool_.slot_index(e.ui, e.slot)];
      if (mark == audit_stamp_) {
        fail("downloading slot has 2 or more live queue entries (expected 1)");
      }
      mark = audit_stamp_;
      if (pool_.gid(e.ui, e.slot) != gid) {
        fail("live pending entry sits in the wrong group");
      }
      if (pool_.state(e.ui, e.slot) != SlotState::kDownloading) {
        fail("scheduled slot is not downloading");
      }
      if (e.target != pool_.target(e.ui, e.slot)) {
        fail("pending entry target diverged from the slot target");
      }
    };
    for (std::size_t li = 0; li < g.lanes.size(); ++li) {
      const Lane& lane = g.lanes[li];
      if (lane.head > lane.items.size()) fail(name + " lane head overran");
      if (!lane.empty() && headed[li] == 0) {
        fail(name + " has a non-empty lane outside the lane-head heap");
      }
      for (std::size_t i = lane.head; i < lane.items.size(); ++i) {
        if (i > lane.head && lane.items[i - 1] > lane.items[i]) {
          fail(name + " lane out of (target, seq, slot) order");
        }
        walk(lane.items[i]);
      }
    }
    for (const PendingEntry& e : g.spill) walk(e);
    if (stale != g.stale) {
      fail(name + " holds " + std::to_string(stale) +
           " stale entries but counts " + std::to_string(g.stale));
    }
    if (has_valid && g.rate > 0.0 && !candidates_.contains(gid)) {
      fail(name + " has live work and positive rate but no candidate entry");
    }
  }

  // Every downloading slot of every live user is scheduled exactly once
  // (policies that run their own completion scheduler opt out). Each live
  // entry names a distinct downloading slot (checked above), so a stamp
  // on every downloading slot makes the match one-to-one.
  if (policy_.kernel_scheduled()) {
    for (const std::size_t ui : live_) {
      for (unsigned s = 0; s < pool_.slots(ui); ++s) {
        if (pool_.state(ui, s) != SlotState::kDownloading) continue;
        if (pool_.gid(ui, s) >= groups_.size()) fail("slot gid out of range");
        if (audit_marks_[pool_.slot_index(ui, s)] != audit_stamp_) {
          fail("downloading slot has no live queue entry (expected 1)");
        }
      }
    }
  }

  // Abort and seed-departure entries of a row's current tenant must name
  // a slot inside its span (recycled rows hand spans to new users).
  for (const AbortEntry& e : abort_queue_) {
    if (e.ui >= pool_.size()) fail("abort entry references unknown user");
    if (pool_.seq(e.ui) == e.seq && e.slot >= pool_.slots(e.ui)) {
      fail("abort entry slot out of range");
    }
  }
  for (const SeedDeparture& e : seed_queue_) {
    if (e.ui >= pool_.size()) fail("seed entry references unknown user");
    if (pool_.seq(e.ui) == e.seq && e.file_idx != kAllFiles &&
        e.file_idx >= pool_.slots(e.ui)) {
      fail("seed entry slot out of range");
    }
  }

  // Population integrals must stay finite and non-negative.
  for (unsigned k = 0; k < cfg_.num_files; ++k) {
    if (!std::isfinite(down_pop_[k]) || down_pop_[k] < -1e-6) {
      fail("downloader population of class " + std::to_string(k + 1) +
           " is negative or non-finite");
    }
    if (!std::isfinite(seed_pop_[k]) || seed_pop_[k] < -1e-6) {
      fail("seed population of class " + std::to_string(k + 1) +
           " is negative or non-finite");
    }
  }
  if (shard_.decomposed) {
    for (unsigned k = 0; k < cfg_.num_files; ++k) {
      if (down_cnt_[k] < 0) {
        fail("decomposed downloader count of class " + std::to_string(k + 1) +
             " went negative");
      }
      if (seed_cnt_[k] < 0) {
        fail("decomposed seed count of class " + std::to_string(k + 1) +
             " went negative");
      }
    }
  }

  // Scheme-specific pool recounts.
  policy_.audit(t);
}

// ---- telemetry ------------------------------------------------------------

void EventKernel::record_sample(double when) {
  const double queued =
      static_cast<double>(tracker_queue_ + readmissions_.size());
  if (shard_.decomposed) {
    ShardOutput& o = shard_out_;
    o.sample_time.push_back(when);
    for (unsigned k = 0; k < cfg_.num_files; ++k) {
      o.down_series[k].push_back(static_cast<double>(down_cnt_[k]));
      o.seed_series[k].push_back(static_cast<double>(seed_cnt_[k]));
    }
    o.live_series.push_back(static_cast<double>(active_peer_count_));
    o.queue_series.push_back(queued);
    o.recovering_series.push_back(recovering_ ? 1.0 : 0.0);
    return;
  }
  for (unsigned k = 0; k < cfg_.num_files; ++k) {
    sampler_->append(down_series_[k], when, down_pop_[k]);
    sampler_->append(seed_series_[k], when, seed_pop_[k]);
  }
  sampler_->append(live_series_, when,
                   static_cast<double>(active_peer_count_));
  sampler_->append(queue_series_, when, queued);
  sampler_->append(recovering_series_, when, recovering_ ? 1.0 : 0.0);
  sampler_->append(arrival_series_, when,
                   cfg_.arrival.rate_at(cfg_.visit_rate, when));
}

void EventKernel::flush_dispatch_span() {
  if (!dispatch_span_.has_value()) return;
  std::ostringstream args;
  args << "{\"rounds\": " << dispatch_rounds_ << ", \"sim_t\": " << now_
       << "}";
  dispatch_span_->set_args(args.str());
  dispatch_span_.reset();  // ends the span
  dispatch_rounds_ = 0;
}

void EventKernel::export_observations(SimResult& result) {
  // Population trajectories: the shared time axis plus one series per
  // class (every series is appended in lockstep, so axes agree).
  const obs::SeriesData axis = sampler_->data(down_series_[0]);
  result.population_time = axis.t;
  for (unsigned k = 0; k < cfg_.num_files; ++k) {
    result.downloaders_trajectory.push_back(
        sampler_->data(down_series_[k]).v);
    result.seeds_trajectory.push_back(sampler_->data(seed_series_[k]).v);
  }

  if (obs_.recorder != nullptr) {
    for (const auto& [name, data] : sampler_->all()) {
      obs_.recorder->import_series(name, data.t, data.v);
    }
    if (!result.rho_trajectory_time.empty()) {
      obs_.recorder->import_series("adapt.rho_mean",
                                   result.rho_trajectory_time,
                                   result.rho_trajectory_mean);
    }
  }

  if (obs_.metrics != nullptr) {
    obs::MetricsRegistry& m = *obs_.metrics;
    m.add(m.counter("sim.events"), result.events_processed);
    m.add(m.counter("sim.arrivals"), result.total_arrivals);
    m.add(m.counter("sim.users_completed"), result.total_users);
    m.add(m.counter("sim.users_censored"), result.censored_users);
    m.add(m.counter("sim.users_aborted"), result.aborted_users);
    m.add(m.counter("sim.rate_epochs"), result.rate_epochs);
    m.add(m.counter("sim.faults_injected"), result.faults_injected);
    m.add(m.counter("sim.downloads_killed"), result.downloads_killed);
    m.add(m.counter("sim.readmissions"), result.readmissions);
    m.set(m.gauge("sim.peak_live_peers"),
          static_cast<double>(result.peak_live_peers));
    m.set(m.gauge("sim.time_to_recover"), result.time_to_recover);
    m.set(m.gauge("sim.readmission_queue_peak"),
          static_cast<double>(result.readmission_queue_peak));
  }
}

// ---- main loop ------------------------------------------------------------

SimResult EventKernel::run() {
  BTMF_CHECK_MSG(!shard_.decomposed,
                 "a decomposed kernel finishes through shard_finish");
  util::Stopwatch wall;
  start();
  run_until(cfg_.horizon);
  SimResult result = finish();
  result.wall_clock_seconds = wall.seconds();
  return result;
}

void EventKernel::start() {
  BTMF_CHECK_MSG(!started_, "EventKernel::start called twice");
  started_ = true;
  cur_t_ = 0.0;
  next_arrival_ = next_arrival_after(0.0);
}

double EventKernel::next_arrival_after(double t) {
  if (cfg_.arrival.homogeneous()) {
    return t + rng_.exponential(cfg_.visit_rate);
  }
  // Lewis-Shedler thinning: candidate gaps at the peak rate, each kept
  // with probability lambda(s)/peak. Exact for any bounded lambda, and
  // every draw here is gated behind the non-homogeneous branch so
  // homogeneous runs replay the historical stream bit for bit.
  double s = t;
  for (;;) {
    s += rng_.exponential(arrival_peak_);
    if (s >= cfg_.horizon) return s;  // never dispatched; stop thinning
    if (rng_.uniform() * arrival_peak_ <=
        cfg_.arrival.rate_at(cfg_.visit_rate, s)) {
      return s;
    }
  }
}

void EventKernel::run_until(double t_end) {
  double t = cur_t_;

  while (t < cfg_.horizon) {
    // Apply pending rate epochs before choosing the next event: rates
    // changed by the last dispatch take effect from the current time.
    policy_.refresh_rates(t);

    const double completion_time =
        candidates_.empty() ? kInf : candidates_.top_key();
    const double abort_time = peek_abort();
    const double seed_time =
        seed_queue_.empty() ? kInf : seed_queue_.front().time;
    const double policy_time = policy_.next_policy_event_time();
    const double fault_time = next_fault_time();
    const double readmit_time = next_readmission_time();
    const double t_next =
        std::min({next_arrival_, seed_time, completion_time, abort_time,
                  policy_time, fault_time, readmit_time, cfg_.horizon});

    if (t_next > t_end && t_end < cfg_.horizon) {
      // Epoch end: nothing fires in (t, t_end], so pause exactly at the
      // boundary. Populations are constant on [t, t_next); sampling
      // the grid points up to t_end now records the same left-limit
      // values an unpaused run would.
      while (next_sample_ <= t_end) {
        record_sample(next_sample_);
        next_sample_ += sample_dt_;
      }
      t = t_end;
      break;
    }

    if (t_next > t) {
      if (!shard_.decomposed) {
        const double stat_lo = std::max(t, cfg_.warmup);
        if (t_next > stat_lo) {
          stats_.observe_populations(down_pop_, seed_pop_, t_next - stat_lo);
        }
      }
      // Sample the piecewise-constant populations at every cadence point
      // the advance steps over (left limits — the value holding on
      // [t, t_next)). Pure observation: no RNG, no event-time changes.
      const double sample_hi = std::min(t_next, cfg_.horizon);
      while (next_sample_ <= sample_hi) {
        record_sample(next_sample_);
        next_sample_ += sample_dt_;
      }
      t = t_next;
    }
    if (t >= cfg_.horizon) break;

    // ---- dispatch everything due at time t (completion wins a tie with
    // ---- an abort because completions drain first) ----------------------
    if (obs_.trace != nullptr) {
      if (!dispatch_span_.has_value()) {
        dispatch_span_.emplace(obs_.trace->span("kernel.dispatch"));
      }
      if (++dispatch_rounds_ >= obs_.trace_batch) flush_dispatch_span();
    }
    if (!shard_.decomposed) {
      stats_.record_event();
      peak_live_peers_ = std::max(peak_live_peers_, active_peer_count_);
    }
    now_ = t;
    process_fault_edges(t);
    if (t + dispatch_eps_ >= next_arrival_) {
      process_arrival(t);
      next_arrival_ = next_arrival_after(t);
    }
    drain_readmissions(t);
    while (!seed_queue_.empty() && seed_queue_.front().time <= t + dispatch_eps_) {
      const SeedDeparture ev = seed_queue_.front();
      std::pop_heap(seed_queue_.begin(), seed_queue_.end(), kMinHeap);
      seed_queue_.pop_back();
      // Entries of crashed (or recycled) users are stale: their slots are
      // no longer seeding. Skipping them here keeps the queue clean.
      if (pool_.seq(ev.ui) == ev.seq) {
        const unsigned check = ev.file_idx == kAllFiles ? 0U : ev.file_idx;
        if (pool_.state(ev.ui, check) == SlotState::kSeeding) {
          policy_.on_seed_departure(ev.ui, ev.file_idx, t);
          if (shard_.decomposed) ++prim_events_;
        }
      }
    }
    if (t + dispatch_eps_ >= policy_time) policy_.on_policy_event(t);
    drain_completions(t);
    drain_aborts(t);
    update_recovery_watch(t);
    if (paranoid_) audit(t);
  }

  cur_t_ = t;
}

SimResult EventKernel::finish() {
  // Census of users still active at the horizon.
  for (const std::size_t ui : live_) {
    if (pool_.sampled(ui)) stats_.record_censored();
  }
  if (recovering_) ++faults_unrecovered_;
  flush_dispatch_span();
  // Close the trajectories exactly at the horizon so the series cover
  // the full run even when the cadence does not divide it.
  if (sampler_->data(live_series_).t.empty() ||
      sampler_->data(live_series_).t.back() < cfg_.horizon) {
    record_sample(cfg_.horizon);
  }

  SimResult result = stats_.finalize(
      std::max(0.0, cfg_.horizon - cfg_.warmup), total_arrivals_);
  // Little's law yields the per-*peer* sojourn from the population the
  // policy counted; normalise to "per file" like every other metric.
  for (unsigned k = 0; k < cfg_.num_files; ++k) {
    const double divisor =
        policy_.little_divisor(static_cast<double>(k + 1));
    result.classes[k].little_download_time /= divisor;
    result.classes[k].little_online_time /= divisor;
  }
  result.rate_epochs = rate_epochs_;
  result.peak_live_peers = peak_live_peers_;
  result.faults_injected = faults_injected_;
  result.downloads_killed = downloads_killed_;
  result.arrivals_dropped = arrivals_dropped_;
  result.arrivals_queued = arrivals_queued_;
  result.readmissions = readmissions_count_;
  result.readmission_queue_peak = readmission_queue_peak_;
  result.time_to_recover = time_to_recover_;
  result.faults_unrecovered = faults_unrecovered_;
  export_observations(result);
  return result;
}

ShardOutput EventKernel::shard_finish() {
  const double horizon = cfg_.horizon;
  // Census closures for users still live at the horizon. Order does not
  // matter: the merge folds every closure into its admission seq's entry.
  for (const std::size_t ui : live_) {
    if (!pool_.sampled(ui)) continue;
    shard_out_.closures.push_back(
        {pool_.seq(ui), pool_.cls(ui),
         static_cast<std::uint8_t>(pool_.aborted(ui) ? 1 : 0), 1,
         horizon - pool_.arrival(ui), 0.0});
  }
  if (recovering_) ++faults_unrecovered_;
  flush_dispatch_span();
  if (shard_out_.sample_time.empty() ||
      shard_out_.sample_time.back() < horizon) {
    record_sample(horizon);
  }

  ShardOutput out = std::move(shard_out_);
  out.down_integral.resize(down_cells_.size());
  out.seed_integral.resize(seed_cells_.size());
  for (std::size_t i = 0; i < down_cells_.size(); ++i) {
    flush_cell(down_cells_[i], horizon);
    flush_cell(seed_cells_[i], horizon);
    out.down_integral[i] = down_cells_[i].integ;
    out.seed_integral[i] = seed_cells_[i].integ;
  }
  out.arrivals_by_class = arrivals_cls_;
  out.total_arrivals = total_arrivals_;
  out.prim_events = prim_events_;
  out.rate_epochs = rate_epochs_;
  out.faults_injected = faults_injected_;
  out.downloads_killed = downloads_killed_;
  out.arrivals_dropped = arrivals_dropped_;
  out.arrivals_queued = arrivals_queued_;
  out.readmissions = readmissions_count_;
  out.readmission_queue_peak = readmission_queue_peak_;
  out.faults_unrecovered = faults_unrecovered_;
  out.time_to_recover = time_to_recover_;
  return out;
}

}  // namespace btmf::sim
