// Event-kernel edge cases, driven through purpose-built test policies:
// the exact completion-vs-abort tie, the generation counters that
// invalidate stale queue entries after a forced group move, and equal
// service targets queued out of admission order. All run with the
// paranoid auditor on, so any bookkeeping the scenarios corrupt throws
// btmf::AuditError at the offending event.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "btmf/sim/event_kernel.h"
#include "btmf/sim/rng.h"

namespace btmf::sim {
namespace {

SimConfig one_file_config() {
  SimConfig c;
  c.num_files = 1;
  c.correlation = 1.0;  // every visitor requests the file: no empty sets,
                        // so the shadow RNG replay below stays in sync
  c.visit_rate = 1.0;
  c.horizon = 60.0;
  c.warmup = 0.0;
  c.seed = 99;
  c.paranoid = true;
  return c;
}

/// Engineers an exact tie between every download's completion and its own
/// abort clock. The policy replays the kernel's RNG stream on a shadow
/// copy to predict the Exp(theta) deadline arm_abort is about to draw,
/// then sizes the download (in a fresh rate-1 group) so the completion
/// candidate is the bit-identical instant t + d. The kernel drains
/// completions before aborts at a shared dispatch time, so every download
/// must finish and no abort may fire.
class ExactTiePolicy : public SchemePolicy {
 public:
  explicit ExactTiePolicy(const SimConfig& cfg)
      : shadow_(cfg.seed),
        num_files_(cfg.num_files),
        visit_rate_(cfg.visit_rate),
        abort_rate_(cfg.abort_rate) {}

  void on_arrival(std::size_t ui, double t) override {
    // Mirror the draws the kernel made since the previous admission: one
    // next-arrival exponential and one set-membership coin per file.
    shadow_.exponential(visit_rate_);
    for (unsigned f = 0; f < num_files_; ++f) shadow_.bernoulli(1.0);
    const double d = shadow_.exponential(abort_rate_);  // arm_abort's draw

    const std::size_t gid = kernel_->new_group(t);
    kernel_->set_group_rate(gid, 1.0, t);
    kernel_->begin_service(ui, 0, gid, d, t);
    kernel_->arm_abort(ui, 0, t);
    kernel_->add_active_peers(1);
    kernel_->down_pop()[0] += 1.0;
    if (deadline_.size() <= ui) deadline_.resize(ui + 1, 0.0);
    deadline_[ui] = t + d;
    ++admitted_;
  }

  void refresh_rates(double) override {}

  void on_complete(std::size_t ui, unsigned slot, double t) override {
    ++completions_;
    // The tie really happened: the completion fired at the bit-identical
    // time the abort clock holds. A failed prediction would land here at
    // a different time (or in on_abort).
    EXPECT_EQ(t, deadline_[ui]);
    SimUser u = kernel_->user(ui);
    u.state[slot] = SlotState::kIdle;
    kernel_->down_pop()[0] -= 1.0;
    kernel_->remove_active_peers(1);
    kernel_->retire_user(ui, t, t - u.arrival, 0.0, false);
  }

  void on_abort(std::size_t, unsigned, double) override { ++aborts_; }
  void on_seed_departure(std::size_t, unsigned, double) override {
    ADD_FAILURE() << "this policy never seeds";
  }
  [[nodiscard]] double little_divisor(double files) const override {
    return files;
  }

  [[nodiscard]] std::size_t admitted() const { return admitted_; }
  [[nodiscard]] std::size_t completions() const { return completions_; }
  [[nodiscard]] std::size_t aborts() const { return aborts_; }

 private:
  RandomStream shadow_;
  unsigned num_files_;
  double visit_rate_;
  double abort_rate_;
  std::vector<double> deadline_;
  std::size_t admitted_ = 0;
  std::size_t completions_ = 0;
  std::size_t aborts_ = 0;
};

TEST(FaultKernelTest, CompletionWinsExactTieWithAbortClock) {
  SimConfig c = one_file_config();
  c.abort_rate = 0.4;
  ExactTiePolicy policy(c);
  EventKernel kernel(c, policy);
  const SimResult r = kernel.run();
  EXPECT_GT(policy.admitted(), 10u);
  // Users still in flight at the horizon are censored, not completed.
  EXPECT_EQ(policy.completions() + r.censored_users, policy.admitted());
  EXPECT_EQ(policy.aborts(), 0u);
  EXPECT_EQ(r.aborted_users, 0u);
  EXPECT_EQ(r.total_users, policy.completions());
}

/// Forces a mid-flight regroup on every other admission: downloads start
/// in a shared slow group (rate 1), and the moved ones leave a stale heap
/// entry behind (not necessarily at the top, so it lingers) while the
/// download continues in a private fast group (rate 2). Generation
/// counters must invalidate the stale entries: each download completes
/// exactly once, at the speed of the group it actually sits in.
class RegroupPolicy : public SchemePolicy {
 public:
  void on_arrival(std::size_t ui, double t) override {
    if (slow_ == kNone) {
      slow_ = kernel_->new_group(t);
      kernel_->set_group_rate(slow_, 1.0, t);
    }
    // Staggered targets keep several entries pending in the slow heap.
    const double work = 5.0 + 3.0 * static_cast<double>(admitted_ % 4);
    kernel_->begin_service(ui, 0, slow_, work, t);
    double expect_at = t + work;
    if (admitted_ % 2 == 1) {
      const double left = kernel_->remaining_work(ui, 0, t);
      const std::size_t fast = kernel_->new_group(t);
      kernel_->set_group_rate(fast, 2.0, t);
      kernel_->move_service(ui, 0, fast, left, t);
      expect_at = t + left / 2.0;
    }
    kernel_->add_active_peers(1);
    kernel_->down_pop()[0] += 1.0;
    if (expected_.size() <= ui) expected_.resize(ui + 1, 0.0);
    expected_[ui] = expect_at;
    ++admitted_;
  }

  void refresh_rates(double) override {}

  void on_complete(std::size_t ui, unsigned slot, double t) override {
    ++completions_;
    // Completing off the stale slow-group entry instead of the fast one
    // would land a moved download at roughly twice this time.
    EXPECT_NEAR(t, expected_[ui], 1e-6);
    SimUser u = kernel_->user(ui);
    u.state[slot] = SlotState::kIdle;
    kernel_->down_pop()[0] -= 1.0;
    kernel_->remove_active_peers(1);
    kernel_->retire_user(ui, t, t - u.arrival, 0.0, false);
  }

  void on_abort(std::size_t, unsigned, double) override {
    ADD_FAILURE() << "abort_rate is 0 in this test";
  }
  void on_seed_departure(std::size_t, unsigned, double) override {
    ADD_FAILURE() << "this policy never seeds";
  }
  [[nodiscard]] double little_divisor(double files) const override {
    return files;
  }

  [[nodiscard]] std::size_t admitted() const { return admitted_; }
  [[nodiscard]] std::size_t completions() const { return completions_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t slow_ = kNone;
  std::vector<double> expected_;
  std::size_t admitted_ = 0;
  std::size_t completions_ = 0;
};

TEST(FaultKernelTest, StaleEntriesAfterForcedMoveAreInvalidated) {
  const SimConfig c = one_file_config();  // paranoid audit every round
  RegroupPolicy policy;
  EventKernel kernel(c, policy);
  const SimResult r = kernel.run();
  EXPECT_GT(policy.admitted(), 10u);
  EXPECT_EQ(policy.completions() + r.censored_users, policy.admitted());
  EXPECT_EQ(r.total_users, policy.completions());
}

/// Queues equal service targets out of admission order. The group's rate
/// stays 0 until kRelease, so every download started before then owes the
/// identical target 0 + 1. Each odd admission also restarts the previous
/// user's download, which queues that user's equal target (smaller seq)
/// behind the newcomer's. Once the rate turns on, all of them fall due at
/// the same instant and must complete in (target, seq, slot) order, i.e.
/// by ascending admission seq.
class EqualTargetPolicy : public SchemePolicy {
 public:
  static constexpr double kRelease = 20.0;

  void on_arrival(std::size_t ui, double t) override {
    if (group_ == kNone) group_ = kernel_->new_group(t);
    kernel_->begin_service(ui, 0, group_, 1.0, t);
    if (!released_ && admitted_ % 2 == 1) {
      kernel_->end_service(prev_, 0);
      kernel_->begin_service(prev_, 0, group_, 1.0, t);
    }
    kernel_->add_active_peers(1);
    kernel_->down_pop()[0] += 1.0;
    if (!released_) ++held_;
    prev_ = ui;
    ++admitted_;
  }

  void refresh_rates(double t) override {
    if (!released_ && t >= kRelease) {
      kernel_->set_group_rate(group_, 1.0, t);
      released_ = true;
    }
  }

  void on_complete(std::size_t ui, unsigned slot, double t) override {
    SimUser u = kernel_->user(ui);
    order_.push_back(u.seq);
    u.state[slot] = SlotState::kIdle;
    kernel_->down_pop()[0] -= 1.0;
    kernel_->remove_active_peers(1);
    kernel_->retire_user(ui, t, t - u.arrival, 0.0, false);
  }

  void on_abort(std::size_t, unsigned, double) override {
    ADD_FAILURE() << "abort_rate is 0 in this test";
  }
  void on_seed_departure(std::size_t, unsigned, double) override {
    ADD_FAILURE() << "this policy never seeds";
  }
  [[nodiscard]] double little_divisor(double files) const override {
    return files;
  }

  [[nodiscard]] std::size_t held() const { return held_; }
  [[nodiscard]] const std::vector<std::uint64_t>& order() const {
    return order_;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t group_ = kNone;
  std::size_t prev_ = kNone;
  bool released_ = false;
  std::size_t admitted_ = 0;
  std::size_t held_ = 0;
  std::vector<std::uint64_t> order_;
};

TEST(FaultKernelTest, EqualTargetsCompleteInAdmissionOrder) {
  const SimConfig c = one_file_config();  // paranoid audit every round
  EqualTargetPolicy policy;
  EventKernel kernel(c, policy);
  kernel.run();
  ASSERT_GT(policy.held(), 10u);
  ASSERT_GE(policy.order().size(), policy.held());
  // The held downloads are admissions 0 .. held-1, all due together.
  for (std::size_t i = 0; i < policy.held(); ++i) {
    EXPECT_EQ(policy.order()[i], i);
  }
}

}  // namespace
}  // namespace btmf::sim
