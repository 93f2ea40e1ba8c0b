// Scheme policies for the independent-torrent schemes (MTCD, MTSD) and
// the merged-buffer scheme (MFCD with joint completion).
//
// All three share the per-torrent pools of the fluid models: a torrent's
// downloaders pull at the common rate
//
//     R_T = min(eta * mu + seed_bw_T / weight_sum_T, download_bw),
//
// scaled by the user's bandwidth split (1/i for the concurrent schemes,
// 1 for MTSD). The split is folded into the *service target* instead of
// the rate, so one service group per torrent suffices: a class-i MTCD
// download owes file_size * i units of R_T integral. MFCD's merged buffer
// drains at (1/i) * sum of its torrents' R_T — a sum no single group rate
// captures cheaply — so MfcdPolicy schedules completions itself with a
// kinetic per-user heap over lazy per-torrent integrals (see below).
//
// MTCD is *shardable*: a class-i user is i independent virtual peers, one
// per torrent, with no cross-torrent coupling. MtcdPolicy therefore runs
// decomposed under ShardedKernel — it draws slot randomness from the
// kernel's counter streams and keeps populations through note_download /
// note_seed, and each kernel instance only materialises the slots of the
// torrents it owns. MTSD and MFCD couple a user's torrents (sequential
// stages, joint completion) and stay on the serial legacy path.
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "btmf/sim/policies.h"

namespace btmf::sim {

namespace {

/// Shared per-torrent pool bookkeeping (weights, seed bandwidth,
/// downloader counts) with a dirty list consumed by refresh_rates.
class TorrentPoolPolicy : public SchemePolicy {
 public:
  void attach(EventKernel& kernel) override {
    SchemePolicy::attach(kernel);
    const SimConfig& cfg = kernel.cfg();
    num_files_ = cfg.num_files;
    mu_ = cfg.fluid.mu;
    eta_ = cfg.fluid.eta;
    gamma_ = cfg.fluid.gamma;
    download_bw_ = cfg.download_bw;
    file_size_ = cfg.file_size;
    // Bandwidth classes: class b uploads at upload_scale_[b] * mu and
    // downloads at most cap_[b]. The homogeneous default (one class at
    // scale 1, cap download_bw) makes every expression below bit-exact
    // with the pre-demand-model arithmetic (x * 1.0 == x).
    if (cfg.bandwidth_classes.empty()) {
      num_bclasses_ = 1;
      upload_scale_.assign(1, 1.0);
      cap_.assign(1, download_bw_);
    } else {
      num_bclasses_ = static_cast<unsigned>(cfg.bandwidth_classes.size());
      upload_scale_.clear();
      cap_.clear();
      for (const fluid::BandwidthClass& cls : cfg.bandwidth_classes) {
        upload_scale_.push_back(cls.upload_scale);
        cap_.push_back(cls.download_cap > 0.0
                           ? std::min(download_bw_, cls.download_cap)
                           : download_bw_);
      }
    }
    weight_sum_.assign(num_files_, 0.0);
    seed_bw_.assign(num_files_, 0.0);
    downloader_count_.assign(num_files_, 0);
    dirty_.assign(num_files_, false);
    dirty_list_.clear();
    metrics_ = kernel.obs().metrics;
    if (metrics_ != nullptr) {
      refreshes_id_ = metrics_->counter("sim.mt.torrent_refreshes");
    }
  }

 protected:
  void mark_dirty(unsigned torrent) {
    if (!dirty_[torrent]) {
      dirty_[torrent] = true;
      dirty_list_.push_back(torrent);
    }
  }

  /// Telemetry: per-torrent rate re-derivations consumed this epoch.
  void count_refreshes() {
    if (metrics_ != nullptr && !dirty_list_.empty()) {
      metrics_->add(refreshes_id_, dirty_list_.size());
    }
  }

  /// The epoch's download rate of `torrent` for a class-`b` peer (0 when
  /// idle). The tit-for-tat term scales with the peer's own upload while
  /// the seed pool is shared per unit weight across all classes. During a
  /// bandwidth-degradation window every peer's mu and c scale together, so
  /// scale * min(...) is exact and the pool accumulators stay unscaled.
  [[nodiscard]] double torrent_rate(unsigned torrent, unsigned b) const {
    if (downloader_count_[torrent] == 0 || weight_sum_[torrent] <= 0.0) {
      return 0.0;
    }
    return bw_scale_ *
           std::min(eta_ * mu_ * upload_scale_[b] +
                        seed_bw_[torrent] / weight_sum_[torrent],
                    cap_[b]);
  }

  /// Service lane of (torrent, bandwidth class): group ids are laid out
  /// torrent-major so the homogeneous case collapses to lane == torrent.
  [[nodiscard]] unsigned lane(unsigned torrent, unsigned b) const {
    return torrent * num_bclasses_ + b;
  }

  /// The seeding bandwidth a class-`b` user contributes per unit share.
  [[nodiscard]] double seed_rate(unsigned b) const {
    return mu_ * upload_scale_[b];
  }

  void add_downloader(unsigned torrent, double weight) {
    weight_sum_[torrent] += weight;
    ++downloader_count_[torrent];
    mark_dirty(torrent);
  }

  void remove_downloader(unsigned torrent, double weight) {
    weight_sum_[torrent] -= weight;
    // Snap the pool shut when the last downloader leaves so float residue
    // never leaks into the next epoch's seed-bandwidth share.
    if (--downloader_count_[torrent] == 0) weight_sum_[torrent] = 0.0;
    mark_dirty(torrent);
  }

  /// Recounts the per-torrent pools and the kernel's per-class populations
  /// from the live users' slot states and compares against the incremental
  /// bookkeeping. `split` is true for the schemes whose per-slot share is
  /// 1/cls (MFCD) and false for MTSD's full-bandwidth stages. Legacy-path
  /// schemes only: the decomposed MTCD audit recounts its own way.
  void audit_shared_pools(bool split) const {
    const auto fail = [](const std::string& why) {
      throw AuditError("torrent-pool audit failed: " + why);
    };
    constexpr double kTol = 1e-6;
    std::vector<double> weight(num_files_, 0.0);
    std::vector<double> seed_bw(num_files_, 0.0);
    std::vector<std::size_t> count(num_files_, 0);
    std::vector<double> down(num_files_, 0.0);
    std::vector<double> seeds(num_files_, 0.0);
    for (const std::size_t ui : kernel_->live()) {
      const SimUser u = kernel_->user(ui);
      const double share = split ? 1.0 / static_cast<double>(u.cls) : 1.0;
      const double seed = seed_rate(kernel_->bandwidth_class(ui));
      for (unsigned f = 0; f < u.slots(); ++f) {
        if (u.state[f] == SlotState::kDownloading) {
          weight[u.files[f]] += share;
          ++count[u.files[f]];
          down[u.cls - 1] += 1.0;
        } else if (u.state[f] == SlotState::kSeeding) {
          seed_bw[u.files[f]] += seed * share;
          seeds[u.cls - 1] += 1.0;
        }
      }
    }
    for (unsigned f = 0; f < num_files_; ++f) {
      if (count[f] != downloader_count_[f]) {
        fail("downloader count of torrent " + std::to_string(f) +
             " diverged from the live slots");
      }
      if (std::abs(weight[f] - weight_sum_[f]) > kTol) {
        fail("weight sum of torrent " + std::to_string(f) +
             " diverged from the live slots");
      }
      if (std::abs(seed_bw[f] - seed_bw_[f]) > kTol) {
        fail("seed bandwidth of torrent " + std::to_string(f) +
             " diverged from the seeding slots");
      }
      if (std::abs(down[f] - kernel_->down_pop()[f]) > kTol) {
        fail("downloader population of class " + std::to_string(f + 1) +
             " diverged from the live slots");
      }
      if (std::abs(seeds[f] - kernel_->seed_pop()[f]) > kTol) {
        fail("seed population of class " + std::to_string(f + 1) +
             " diverged from the seeding slots");
      }
    }
  }

  unsigned num_files_ = 0;
  unsigned num_bclasses_ = 1;          ///< B >= 1; 1 when homogeneous
  std::vector<double> upload_scale_;   ///< per bandwidth class
  std::vector<double> cap_;            ///< effective download cap per class
  double mu_ = 0.0, eta_ = 0.0, gamma_ = 0.0;
  double download_bw_ = 0.0, file_size_ = 0.0;
  double bw_scale_ = 1.0;  ///< bandwidth-degradation multiplier on mu and c
  std::vector<double> weight_sum_;
  std::vector<double> seed_bw_;
  std::vector<std::size_t> downloader_count_;
  std::vector<bool> dirty_;
  std::vector<unsigned> dirty_list_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< null = inert
  obs::MetricId refreshes_id_ = 0;

 public:
  void on_fault_bandwidth(double scale, double /*t*/) override {
    bw_scale_ = scale;
    // Every torrent's rate changes; refresh_rates re-derives them all.
    for (unsigned f = 0; f < num_files_; ++f) mark_dirty(f);
  }
};

// ---------------------------------------------------------------------------
// MTCD: i independent virtual peers per class-i user.
// ---------------------------------------------------------------------------
class MtcdPolicy final : public TorrentPoolPolicy {
 public:
  void attach(EventKernel& kernel) override {
    TorrentPoolPolicy::attach(kernel);
    // One service lane per (torrent, bandwidth class); homogeneous runs
    // create exactly the historical one-group-per-torrent layout.
    for (unsigned g = 0; g < num_files_ * num_bclasses_; ++g) {
      kernel.new_group(0.0);
    }
  }

  /// Virtual peers are torrent-independent; ShardedKernel may decompose.
  [[nodiscard]] bool shardable() const override { return true; }

  void on_arrival(std::size_t ui, double t) override {
    SimUser u = kernel_->user(ui);
    // In a decomposed kernel the user's slots are the shard's owned
    // files only; arithmetic weights still use the logical class.
    u.live_parts = u.slots();
    for (unsigned f = 0; f < u.slots(); ++f) start_download(ui, f, t);
    kernel_->add_active_peers(u.slots());
  }

  void refresh_rates(double t) override {
    count_refreshes();
    for (const unsigned torrent : dirty_list_) {
      for (unsigned b = 0; b < num_bclasses_; ++b) {
        kernel_->set_group_rate(lane(torrent, b), torrent_rate(torrent, b),
                                t);
      }
      dirty_[torrent] = false;
    }
    dirty_list_.clear();
  }

  void on_complete(std::size_t ui, unsigned slot, double t) override {
    SimUser u = kernel_->user(ui);
    const unsigned torrent = u.files[slot];
    remove_downloader(torrent, 1.0 / static_cast<double>(u.cls));
    // The virtual peer turns into a seed of its torrent with an
    // independent Exp(gamma) residence (paper Sec. 3.2 semantics).
    u.state[slot] = SlotState::kSeeding;
    u.done[slot] = 1;
    seed_bw_[torrent] += seed_rate(kernel_->bandwidth_class(ui)) /
                         static_cast<double>(u.cls);
    u.last_completion = t;
    kernel_->note_download(torrent, u.cls, -1, t);
    kernel_->note_seed(torrent, u.cls, +1, t);
    kernel_->schedule_seed_departure(
        ui, slot, t + kernel_->slot_exponential(ui, slot, gamma_));
  }

  void on_seed_departure(std::size_t ui, unsigned file_idx,
                         double t) override {
    SimUser u = kernel_->user(ui);
    const unsigned torrent = u.files[file_idx];
    u.state[file_idx] = SlotState::kIdle;
    seed_bw_[torrent] -= seed_rate(kernel_->bandwidth_class(ui)) /
                         static_cast<double>(u.cls);
    mark_dirty(torrent);
    kernel_->note_seed(torrent, u.cls, -1, t);
    kernel_->remove_active_peers(1);
    if (--u.live_parts == 0) {
      kernel_->retire_user(ui, t, u.last_completion - u.arrival, 0.0, false);
    }
  }

  void on_abort(std::size_t ui, unsigned slot, double t) override {
    SimUser u = kernel_->user(ui);
    kernel_->end_service(ui, slot);
    u.state[slot] = SlotState::kIdle;
    u.aborted = true;
    remove_downloader(u.files[slot], 1.0 / static_cast<double>(u.cls));
    kernel_->note_download(u.files[slot], u.cls, -1, t);
    kernel_->remove_active_peers(1);
    // Only this virtual peer leaves; siblings keep downloading/seeding.
    if (--u.live_parts == 0) {
      kernel_->retire_user(ui, t, u.last_completion - u.arrival, 0.0, false);
    }
  }

  void on_fault_crash(std::size_t ui, double t) override {
    SimUser u = kernel_->user(ui);
    const double cls = static_cast<double>(u.cls);
    const double seed = seed_rate(kernel_->bandwidth_class(ui));
    for (unsigned f = 0; f < u.slots(); ++f) {
      if (u.state[f] == SlotState::kDownloading) {
        kernel_->end_service(ui, f);
        remove_downloader(u.files[f], 1.0 / cls);
        kernel_->note_download(u.files[f], u.cls, -1, t);
        kernel_->remove_active_peers(1);
      } else if (u.state[f] == SlotState::kSeeding) {
        // Queued seed departures of this slot go stale; the kernel skips
        // them because the slot is no longer kSeeding.
        seed_bw_[u.files[f]] -= seed / cls;
        mark_dirty(u.files[f]);
        kernel_->note_seed(u.files[f], u.cls, -1, t);
        kernel_->remove_active_peers(1);
      }
      u.state[f] = SlotState::kIdle;
    }
    u.live_parts = 0;
  }

  /// Recounts pools and the kernel's decomposed per-class counts from the
  /// live slots (the legacy audit checks down_pop/seed_pop, which the
  /// decomposed kernel does not maintain).
  void audit(double /*t*/) override {
    const auto fail = [](const std::string& why) {
      throw AuditError("MTCD pool audit failed: " + why);
    };
    constexpr double kTol = 1e-6;
    std::vector<double> weight(num_files_, 0.0);
    std::vector<double> seed_bw(num_files_, 0.0);
    std::vector<std::size_t> count(num_files_, 0);
    std::vector<std::int64_t> down(num_files_, 0);
    std::vector<std::int64_t> seeds(num_files_, 0);
    for (const std::size_t ui : kernel_->live()) {
      const SimUser u = kernel_->user(ui);
      const double share = 1.0 / static_cast<double>(u.cls);
      const double seed = seed_rate(kernel_->bandwidth_class(ui));
      for (unsigned f = 0; f < u.slots(); ++f) {
        if (u.state[f] == SlotState::kDownloading) {
          weight[u.files[f]] += share;
          ++count[u.files[f]];
          ++down[u.cls - 1];
        } else if (u.state[f] == SlotState::kSeeding) {
          seed_bw[u.files[f]] += seed * share;
          ++seeds[u.cls - 1];
        }
      }
    }
    for (unsigned f = 0; f < num_files_; ++f) {
      if (count[f] != downloader_count_[f]) {
        fail("downloader count of torrent " + std::to_string(f) +
             " diverged from the live slots");
      }
      if (std::abs(weight[f] - weight_sum_[f]) > kTol) {
        fail("weight sum of torrent " + std::to_string(f) +
             " diverged from the live slots");
      }
      if (std::abs(seed_bw[f] - seed_bw_[f]) > kTol) {
        fail("seed bandwidth of torrent " + std::to_string(f) +
             " diverged from the seeding slots");
      }
      if (down[f] != kernel_->down_count(f)) {
        fail("downloader count of class " + std::to_string(f + 1) +
             " diverged from the live slots");
      }
      if (seeds[f] != kernel_->seed_count(f)) {
        fail("seed count of class " + std::to_string(f + 1) +
             " diverged from the seeding slots");
      }
    }
  }

  [[nodiscard]] double little_divisor(double files) const override {
    return files * files;
  }

 private:
  void start_download(std::size_t ui, unsigned slot, double t) {
    SimUser u = kernel_->user(ui);
    const unsigned torrent = u.files[slot];
    add_downloader(torrent, 1.0 / static_cast<double>(u.cls));
    kernel_->note_download(torrent, u.cls, +1, t);
    // Group rate is the unsplit R_{T,b}; the 1/i split is an i-fold work.
    kernel_->begin_service(ui, slot,
                           lane(torrent, kernel_->bandwidth_class(ui)),
                           file_size_ * static_cast<double>(u.cls), t);
    kernel_->arm_abort(ui, slot, t);
  }
};

// ---------------------------------------------------------------------------
// MTSD: one file at a time at full bandwidth, seed between stages.
// ---------------------------------------------------------------------------
class MtsdPolicy final : public TorrentPoolPolicy {
 public:
  void attach(EventKernel& kernel) override {
    TorrentPoolPolicy::attach(kernel);
    for (unsigned g = 0; g < num_files_ * num_bclasses_; ++g) {
      kernel.new_group(0.0);
    }
  }

  void on_arrival(std::size_t ui, double t) override {
    SimUser u = kernel_->user(ui);
    kernel_->rng().shuffle(u.files);
    u.seq_pos = 0;
    start_download(ui, 0, t);
    kernel_->down_pop()[u.cls - 1] += 1.0;
    kernel_->add_active_peers(1);
  }

  void refresh_rates(double t) override {
    count_refreshes();
    for (const unsigned torrent : dirty_list_) {
      for (unsigned b = 0; b < num_bclasses_; ++b) {
        kernel_->set_group_rate(lane(torrent, b), torrent_rate(torrent, b),
                                t);
      }
      dirty_[torrent] = false;
    }
    dirty_list_.clear();
  }

  void on_complete(std::size_t ui, unsigned slot, double t) override {
    SimUser u = kernel_->user(ui);
    const unsigned torrent = u.files[slot];
    remove_downloader(torrent, 1.0);
    u.state[slot] = SlotState::kSeeding;
    u.done[slot] = 1;
    u.download_accum += t - u.stage_start;
    // Full (class-scaled) bandwidth while seeding.
    seed_bw_[torrent] += seed_rate(kernel_->bandwidth_class(ui));
    u.last_completion = t;
    kernel_->down_pop()[u.cls - 1] -= 1.0;
    kernel_->seed_pop()[u.cls - 1] += 1.0;
    kernel_->schedule_seed_departure(ui, slot,
                                     t + kernel_->rng().exponential(gamma_));
  }

  void on_seed_departure(std::size_t ui, unsigned file_idx,
                         double t) override {
    SimUser u = kernel_->user(ui);
    u.state[file_idx] = SlotState::kIdle;
    seed_bw_[u.files[file_idx]] -= seed_rate(kernel_->bandwidth_class(ui));
    mark_dirty(u.files[file_idx]);
    kernel_->seed_pop()[u.cls - 1] -= 1.0;
    // Move on to the next file or leave.
    ++u.seq_pos;
    if (u.seq_pos < u.cls) {
      start_download(ui, u.seq_pos, t);
      kernel_->down_pop()[u.cls - 1] += 1.0;
    } else {
      kernel_->remove_active_peers(1);
      kernel_->retire_user(ui, t, u.download_accum, 0.0, false);
    }
  }

  void on_abort(std::size_t ui, unsigned slot, double t) override {
    SimUser u = kernel_->user(ui);
    kernel_->end_service(ui, slot);
    u.state[slot] = SlotState::kIdle;
    u.aborted = true;
    remove_downloader(u.files[slot], 1.0);
    kernel_->down_pop()[u.cls - 1] -= 1.0;
    kernel_->remove_active_peers(1);
    // The user walks away from its whole queue.
    kernel_->retire_user(ui, t, u.download_accum, 0.0, false);
  }

  void on_fault_crash(std::size_t ui, double t) override {
    (void)t;
    SimUser u = kernel_->user(ui);
    const double seed = seed_rate(kernel_->bandwidth_class(ui));
    // Exactly one slot is active at a time in the sequential scheme, but
    // the teardown sweeps them all for robustness.
    for (unsigned f = 0; f < u.cls; ++f) {
      if (u.state[f] == SlotState::kDownloading) {
        kernel_->end_service(ui, f);
        remove_downloader(u.files[f], 1.0);
        kernel_->down_pop()[u.cls - 1] -= 1.0;
        kernel_->remove_active_peers(1);
      } else if (u.state[f] == SlotState::kSeeding) {
        seed_bw_[u.files[f]] -= seed;
        mark_dirty(u.files[f]);
        kernel_->seed_pop()[u.cls - 1] -= 1.0;
        kernel_->remove_active_peers(1);
      }
      u.state[f] = SlotState::kIdle;
    }
  }

  void audit(double /*t*/) override { audit_shared_pools(false); }

  [[nodiscard]] double little_divisor(double files) const override {
    return files;
  }

 private:
  void start_download(std::size_t ui, unsigned slot, double t) {
    SimUser u = kernel_->user(ui);
    add_downloader(u.files[slot], 1.0);
    u.stage_start = t;
    kernel_->begin_service(ui, slot,
                           lane(u.files[slot], kernel_->bandwidth_class(ui)),
                           file_size_, t);
    kernel_->arm_abort(ui, slot, t);
  }
};

// ---------------------------------------------------------------------------
// MFCD (joint completion): one merged buffer per user; all files finish
// together and the user then seeds every subtorrent for one shared
// Exp(gamma) residence.
//
// A class-i buffer drains at (1/i) * sum of its torrents' R_T, so in the
// summed per-torrent integral S(t) = sum_f S_{T_f}(t) the user completes
// when S reaches S(t0) + file_size * i^2. Grouping users by exact file
// set (up to 2^K groups) makes every rate epoch fan out to every group
// containing a dirty torrent — roughly *all* of them once the population
// is large. Instead the policy keeps only K lazy per-torrent integrals
// and schedules each user kinetically: a wake time
//
//     t + need / sum_f bound_{T_f},    bound_T >= R_T at all times,
//
// is a guaranteed-early bound on the true completion (service can only
// accrue slower than the bounds allow), so the kernel never steps past a
// completion. At each wake the user is either due or re-keyed; `need`
// shrinks by at least the factor headroom/(1+headroom) per wake, so a
// completion costs O(log(need/eps)) wakes. bound_T only needs attention
// when R_T breaks through it — then the members of that torrent are
// re-keyed — which the 10% headroom makes rare, instead of per-event.
// ---------------------------------------------------------------------------
class MfcdPolicy final : public TorrentPoolPolicy {
 public:
  void attach(EventKernel& kernel) override {
    TorrentPoolPolicy::attach(kernel);
    // Rates, integrals, and bounds live per (torrent, bandwidth class)
    // lane; member lists stay per torrent (a breakthrough re-keys every
    // member of the torrent, which is safe for all lanes).
    rate_.assign(num_files_ * num_bclasses_, 0.0);
    integ_.assign(num_files_ * num_bclasses_, 0.0);
    integ_mark_.assign(num_files_ * num_bclasses_, 0.0);
    bound_.assign(num_files_ * num_bclasses_, 0.0);
    members_.assign(num_files_, {});
  }

  void on_arrival(std::size_t ui, double t) override {
    SimUser u = kernel_->user(ui);
    const double cls = static_cast<double>(u.cls);
    for (unsigned f = 0; f < u.cls; ++f) {
      const unsigned torrent = u.files[f];
      add_downloader(torrent, 1.0 / cls);
      u.state[f] = SlotState::kDownloading;
      // gid doubles as the user's position in each torrent's member list.
      u.gid[f] = members_[torrent].size();
      members_[torrent].push_back({ui, f});
    }
    u.target[0] = set_integral(u, kernel_->bandwidth_class(ui), t) +
                  file_size_ * cls * cls;
    if (ui >= wakes_.id_capacity()) wakes_.resize(ui + 1);
    rekey(ui, t);
    for (unsigned f = 0; f < u.cls; ++f) kernel_->arm_abort(ui, f, t);
    kernel_->down_pop()[u.cls - 1] += cls;
    kernel_->add_active_peers(u.cls);
  }

  void refresh_rates(double t) override {
    count_refreshes();
    for (const unsigned torrent : dirty_list_) {
      bool changed = false;
      bool broke = false;
      for (unsigned b = 0; b < num_bclasses_; ++b) {
        const unsigned ln = lane(torrent, b);
        // The old slope applied on [mark, t]; bank it before swapping.
        integ_[ln] += rate_[ln] * (t - integ_mark_[ln]);
        integ_mark_[ln] = t;
        const double r = torrent_rate(torrent, b);
        if (r != rate_[ln]) {
          rate_[ln] = r;
          changed = true;
        }
        if (r > bound_[ln]) {
          // The rate broke through the guarded bound: wakes computed
          // against the old bound may now be too late.
          bound_[ln] = r * (1.0 + kHeadroom);
          broke = true;
        } else if (r * (1.0 + kHeadroom) * (1.0 + kHeadroom) < bound_[ln]) {
          // Tighten once a spike decays, or wakes stay needlessly early.
          // Outstanding wakes used the larger bound and remain safe.
          bound_[ln] = r * (1.0 + kHeadroom);
        }
      }
      if (changed) kernel_->add_rate_epochs(1);
      if (broke) {
        // Re-key every member of the torrent (cheap superset of the
        // members in the breaking lanes).
        for (const auto& member : members_[torrent]) rekey(member.first, t);
      }
      dirty_[torrent] = false;
    }
    dirty_list_.clear();
  }

  void on_complete(std::size_t /*ui*/, unsigned /*slot*/,
                   double /*t*/) override {
    BTMF_ASSERT(false && "MFCD completions are policy-scheduled");
  }

  [[nodiscard]] double next_policy_event_time() const override {
    return wakes_.empty() ? std::numeric_limits<double>::infinity()
                          : wakes_.top_key();
  }

  void on_policy_event(double t) override {
    while (!wakes_.empty() && wakes_.top_key() <= t + kTimeEps) {
      const std::size_t ui = wakes_.top_id();
      const SimUser u = kernel_->user(ui);
      if (due(u.target[0],
              set_integral(u, kernel_->bandwidth_class(ui), t))) {
        finish_user(ui, t);
      } else {
        rekey(ui, t);
      }
    }
  }

  void on_seed_departure(std::size_t ui, unsigned /*file_idx*/,
                         double t) override {
    SimUser u = kernel_->user(ui);
    const double cls = static_cast<double>(u.cls);
    const double seed = seed_rate(kernel_->bandwidth_class(ui));
    for (unsigned f = 0; f < u.cls; ++f) {
      seed_bw_[u.files[f]] -= seed / cls;
      mark_dirty(u.files[f]);
      u.state[f] = SlotState::kIdle;
    }
    kernel_->seed_pop()[u.cls - 1] -= cls;
    kernel_->remove_active_peers(u.cls);
    kernel_->retire_user(ui, t, u.last_completion - u.arrival, 0.0, false);
  }

  void on_abort(std::size_t ui, unsigned /*slot*/, double t) override {
    // Random-chunk downloading means no file is individually complete;
    // the whole visit is abandoned.
    SimUser u = kernel_->user(ui);
    wakes_.erase(ui);
    const double cls = static_cast<double>(u.cls);
    for (unsigned f = 0; f < u.cls; ++f) {
      drop_member(u, f);
      remove_downloader(u.files[f], 1.0 / cls);
      u.state[f] = SlotState::kIdle;
    }
    u.aborted = true;
    kernel_->down_pop()[u.cls - 1] -= cls;
    kernel_->remove_active_peers(u.cls);
    kernel_->retire_user(ui, t, 0.0, 0.0, false);
  }

  void on_fault_crash(std::size_t ui, double t) override {
    (void)t;
    SimUser u = kernel_->user(ui);
    wakes_.erase(ui);
    const double cls = static_cast<double>(u.cls);
    const double seed = seed_rate(kernel_->bandwidth_class(ui));
    for (unsigned f = 0; f < u.cls; ++f) {
      if (u.state[f] == SlotState::kDownloading) {
        drop_member(u, f);
        remove_downloader(u.files[f], 1.0 / cls);
        kernel_->down_pop()[u.cls - 1] -= 1.0;
        kernel_->remove_active_peers(1);
      } else if (u.state[f] == SlotState::kSeeding) {
        seed_bw_[u.files[f]] -= seed / cls;
        mark_dirty(u.files[f]);
        kernel_->seed_pop()[u.cls - 1] -= 1.0;
        kernel_->remove_active_peers(1);
      }
      u.state[f] = SlotState::kIdle;
    }
  }

  /// MFCD schedules completions itself; the kernel auditor must not
  /// expect per-slot service-group entries.
  [[nodiscard]] bool kernel_scheduled() const override { return false; }

  void audit(double /*t*/) override {
    audit_shared_pools(true);
    const auto fail = [](const std::string& why) {
      throw AuditError("MFCD audit failed: " + why);
    };
    std::string reason;
    if (!wakes_.validate(&reason)) fail("wake heap: " + reason);
    std::size_t member_entries = 0;
    for (unsigned torrent = 0; torrent < num_files_; ++torrent) {
      for (unsigned b = 0; b < num_bclasses_; ++b) {
        if (bound_[lane(torrent, b)] + 1e-12 < rate_[lane(torrent, b)]) {
          fail("bound of torrent " + std::to_string(torrent) + " lane " +
               std::to_string(b) + " fell below its rate");
        }
      }
      member_entries += members_[torrent].size();
      for (std::size_t at = 0; at < members_[torrent].size(); ++at) {
        const auto [ui, slot] = members_[torrent][at];
        const SimUser u = kernel_->user(ui);
        if (slot >= u.cls || u.files[slot] != torrent) {
          fail("member entry does not match its user's file set");
        }
        if (u.state[slot] != SlotState::kDownloading) {
          fail("member entry for a slot that is not downloading");
        }
        if (u.gid[slot] != at) {
          fail("member position cross-reference broken");
        }
      }
    }
    std::size_t downloading_slots = 0;
    for (const std::size_t ui : kernel_->live()) {
      const SimUser u = kernel_->user(ui);
      for (unsigned f = 0; f < u.cls; ++f) {
        if (u.state[f] == SlotState::kDownloading) ++downloading_slots;
      }
    }
    if (member_entries != downloading_slots) {
      fail("member lists and downloading slots disagree");
    }
  }

  [[nodiscard]] double little_divisor(double files) const override {
    return files * files;
  }

 private:
  static constexpr double kHeadroom = 0.1;
  static constexpr double kTimeEps = 1e-12;  // kernel simultaneity window

  /// Lazy integral of one (torrent, bandwidth class) service lane.
  [[nodiscard]] double lane_integral(unsigned ln, double t) const {
    return integ_[ln] + rate_[ln] * (t - integ_mark_[ln]);
  }

  [[nodiscard]] double set_integral(const SimUser& u, unsigned b,
                                    double t) const {
    double acc = 0.0;
    for (unsigned f = 0; f < u.cls; ++f) {
      acc += lane_integral(lane(u.files[f], b), t);
    }
    return acc;
  }

  /// Same service-space due test as the kernel's.
  [[nodiscard]] static bool due(double target, double acc) {
    return target - acc <= 1e-9 * std::max(1.0, std::abs(target));
  }

  /// Recomputes the guaranteed-early wake of `ui` from the current
  /// integrals and bounds.
  void rekey(std::size_t ui, double t) {
    const SimUser u = kernel_->user(ui);
    const unsigned b = kernel_->bandwidth_class(ui);
    const double acc = set_integral(u, b, t);
    if (due(u.target[0], acc)) {
      wakes_.set(ui, t, u.seq);
      return;
    }
    double ub = 0.0;
    for (unsigned f = 0; f < u.cls; ++f) ub += bound_[lane(u.files[f], b)];
    if (ub <= 0.0) {
      // Every subtorrent idle; a rate rising from zero breaks through its
      // bound and re-keys the members, so erasing here is safe.
      wakes_.erase(ui);
      return;
    }
    // Clamp outside the simultaneity window so a huge `ub` cannot pin the
    // wake at the current time and spin the policy-event loop.
    wakes_.set(ui, t + std::max((u.target[0] - acc) / ub, 2.0 * kTimeEps),
               u.seq);
  }

  /// Swap-removes (ui, slot) from its torrent's member list.
  void drop_member(SimUser& u, unsigned slot) {
    auto& list = members_[u.files[slot]];
    const std::size_t at = u.gid[slot];
    const auto moved = list.back();
    list[at] = moved;
    kernel_->user(moved.first).gid[moved.second] = at;
    list.pop_back();
  }

  void finish_user(std::size_t ui, double t) {
    wakes_.erase(ui);
    SimUser u = kernel_->user(ui);
    const double cls = static_cast<double>(u.cls);
    const double seed = seed_rate(kernel_->bandwidth_class(ui));
    for (unsigned f = 0; f < u.cls; ++f) {
      const unsigned torrent = u.files[f];
      drop_member(u, f);
      remove_downloader(torrent, 1.0 / cls);
      u.state[f] = SlotState::kSeeding;
      u.done[f] = 1;
      seed_bw_[torrent] += seed / cls;
    }
    u.last_completion = t;
    kernel_->down_pop()[u.cls - 1] -= cls;
    kernel_->seed_pop()[u.cls - 1] += cls;
    kernel_->schedule_seed_departure(ui, EventKernel::kAllFiles,
                                     t + kernel_->rng().exponential(gamma_));
  }

  std::vector<double> rate_;        ///< current R_{T,b} per lane
  std::vector<double> integ_;       ///< S_{T,b} banked at integ_mark_
  std::vector<double> integ_mark_;
  std::vector<double> bound_;       ///< ratcheted bound_{T,b} >= R_{T,b}
  /// T -> (ui, slot) of its current downloaders; positions live in gid.
  std::vector<std::vector<std::pair<std::size_t, unsigned>>> members_;
  /// ui -> guaranteed-early wake time. Simultaneous wakes pop in admission
  /// order (tie = seq), which recycled row ids do not preserve.
  IndexedMinHeap wakes_;
};

}  // namespace

std::unique_ptr<SchemePolicy> make_mtcd_policy() {
  return std::make_unique<MtcdPolicy>();
}
std::unique_ptr<SchemePolicy> make_mtsd_policy() {
  return std::make_unique<MtsdPolicy>();
}
std::unique_ptr<SchemePolicy> make_mfcd_policy() {
  return std::make_unique<MfcdPolicy>();
}

}  // namespace btmf::sim
