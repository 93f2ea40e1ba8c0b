// Fault-injection layer: plan parsing/validation, determinism of faulted
// runs, the bit-identity guarantee for inert plans, the recovery
// observability counters and replication isolation.
//
// The paranoid auditor runs in most of these tests (cfg.paranoid = true):
// a fault path that corrupts a service-group integral, leaks a heap entry
// or miscounts a policy pool throws btmf::AuditError at the offending
// event and fails the test with the diagnosis.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>

#include "btmf/sim/faults.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/error.h"

namespace btmf::sim {
namespace {

SimConfig base_config(fluid::SchemeKind scheme) {
  SimConfig c;
  c.scheme = scheme;
  c.num_files = 4;
  c.correlation = 0.5;
  c.visit_rate = 2.0;
  c.horizon = 600.0;
  c.warmup = 150.0;
  c.seed = 77;
  if (scheme == fluid::SchemeKind::kCmfsd) c.rho = 0.3;
  return c;
}

/// A plan touching every fault kind, all inside the base horizon.
FaultPlan rich_plan() {
  FaultPlan plan;
  plan.tracker_outages.push_back({100.0, 50.0, false, 1.0});
  plan.seed_failures.push_back({200.0, 60.0});
  plan.churn_bursts.push_back({300.0, 0.5, 1.0, 0.5});
  plan.bandwidth_faults.push_back({400.0, 50.0, 0.5});
  return plan;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t k = 0; k < a.classes.size(); ++k) {
    const PerClassResult& x = a.classes[k];
    const PerClassResult& y = b.classes[k];
    EXPECT_EQ(x.completed_users, y.completed_users) << "class " << k + 1;
    EXPECT_EQ(x.mean_online_per_file, y.mean_online_per_file);
    EXPECT_EQ(x.mean_download_per_file, y.mean_download_per_file);
    EXPECT_EQ(x.avg_downloaders, y.avg_downloaders);
    EXPECT_EQ(x.avg_seeds, y.avg_seeds);
    EXPECT_EQ(x.little_online_time, y.little_online_time);
  }
  EXPECT_EQ(a.avg_online_per_file, b.avg_online_per_file);
  EXPECT_EQ(a.avg_download_per_file, b.avg_download_per_file);
  EXPECT_EQ(a.total_users, b.total_users);
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.censored_users, b.censored_users);
  EXPECT_EQ(a.aborted_users, b.aborted_users);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rate_epochs, b.rate_epochs);
  EXPECT_EQ(a.peak_live_peers, b.peak_live_peers);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.downloads_killed, b.downloads_killed);
  EXPECT_EQ(a.readmissions, b.readmissions);
  EXPECT_EQ(a.time_to_recover, b.time_to_recover);
}

class FaultSchemeTest : public ::testing::TestWithParam<fluid::SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(AllSchemes, FaultSchemeTest,
                         ::testing::Values(fluid::SchemeKind::kMtcd,
                                           fluid::SchemeKind::kMtsd,
                                           fluid::SchemeKind::kMfcd,
                                           fluid::SchemeKind::kCmfsd),
                         [](const auto& tpi) {
                           switch (tpi.param) {
                             case fluid::SchemeKind::kMtcd: return "Mtcd";
                             case fluid::SchemeKind::kMtsd: return "Mtsd";
                             case fluid::SchemeKind::kMfcd: return "Mfcd";
                             default: return "Cmfsd";
                           }
                         });

// The bit-identity guarantee: a plan whose faults all live beyond the
// horizon never fires, and its mere presence (the compiled timeline, the
// gating branches on every arrival and seed residence) must not perturb a
// single event or RNG draw relative to the default no-fault run.
TEST_P(FaultSchemeTest, InertPlanIsBitIdenticalToNoFaultRun) {
  const SimConfig clean = base_config(GetParam());
  SimConfig faulted = clean;
  const double h = clean.horizon;
  faulted.faults.tracker_outages.push_back({2.0 * h, 100.0, false, 1.0});
  faulted.faults.seed_failures.push_back({3.0 * h, 100.0});
  faulted.faults.churn_bursts.push_back({2.5 * h, 1.0, 1.0, 1.0});
  faulted.faults.bandwidth_faults.push_back({4.0 * h, 100.0, 0.5});
  expect_identical(run_simulation(clean), run_simulation(faulted));
}

// Faulted runs are as deterministic as clean ones (all fault randomness
// comes from the replication's stream), and the paranoid auditor holds
// across every scheme while every fault kind fires.
TEST_P(FaultSchemeTest, FaultedRunDeterministicUnderParanoidAudit) {
  SimConfig c = base_config(GetParam());
  c.faults = rich_plan();
  c.paranoid = true;
  const SimResult a = run_simulation(c);
  const SimResult b = run_simulation(c);
  expect_identical(a, b);
  // 2 edges per window fault + 1 churn instant.
  EXPECT_EQ(a.faults_injected, 7u);
  EXPECT_GT(a.total_users, 0u);
}

TEST(FaultSimTest, ChurnBurstKillsAndReadmitsPeers) {
  SimConfig c = base_config(fluid::SchemeKind::kMtcd);
  c.paranoid = true;
  c.faults.churn_bursts.push_back({300.0, 1.0, 1.0, 1.0});
  const SimResult r = run_simulation(c);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GT(r.downloads_killed, 0u);
  EXPECT_GT(r.readmissions, 0u);
  EXPECT_GE(r.readmission_queue_peak, 1u);
  // The burst dented the population, so a recovery episode either closed
  // (positive time) or was still open at the horizon.
  EXPECT_TRUE(r.time_to_recover > 0.0 || r.faults_unrecovered > 0u);
}

TEST(FaultSimTest, TrackerOutageDropLosesVisitorsForever) {
  SimConfig c = base_config(fluid::SchemeKind::kMtsd);
  c.paranoid = true;
  c.faults.tracker_outages.push_back({200.0, 100.0, true, 1.0});
  const SimResult r = run_simulation(c);
  EXPECT_GT(r.arrivals_dropped, 0u);
  EXPECT_EQ(r.arrivals_queued, 0u);
  EXPECT_EQ(r.readmissions, 0u);
}

TEST(FaultSimTest, TrackerOutageQueueReadmitsVisitors) {
  SimConfig c = base_config(fluid::SchemeKind::kMtsd);
  c.paranoid = true;
  c.faults.tracker_outages.push_back({200.0, 100.0, false, 2.0});
  const SimResult r = run_simulation(c);
  EXPECT_EQ(r.arrivals_dropped, 0u);
  EXPECT_GT(r.arrivals_queued, 0u);
  EXPECT_GT(r.readmissions, 0u);
  EXPECT_LE(r.readmissions, r.arrivals_queued);
  EXPECT_GE(r.readmission_queue_peak, 1u);
}

TEST(FaultSimTest, SeedFailureWindowRunsCleanly) {
  for (const fluid::SchemeKind scheme :
       {fluid::SchemeKind::kMtcd, fluid::SchemeKind::kMfcd,
        fluid::SchemeKind::kCmfsd}) {
    SimConfig c = base_config(scheme);
    c.paranoid = true;
    c.faults.seed_failures.push_back({200.0, 150.0});
    const SimResult r = run_simulation(c);
    EXPECT_EQ(r.faults_injected, 2u);  // down edge + recovery edge
    EXPECT_GT(r.total_users, 0u);
  }
}

TEST(FaultSimTest, BandwidthWindowSlowsThenRestores) {
  SimConfig clean = base_config(fluid::SchemeKind::kMtcd);
  SimConfig degraded = clean;
  degraded.paranoid = true;
  degraded.faults.bandwidth_faults.push_back({150.0, 300.0, 0.25});
  const SimResult a = run_simulation(clean);
  const SimResult b = run_simulation(degraded);
  // Downloads crossing the window take longer on average.
  EXPECT_GT(b.avg_download_per_file, a.avg_download_per_file);
  EXPECT_EQ(b.faults_injected, 2u);
}

// ---- plan parsing and validation ------------------------------------------

TEST(FaultPlanTest, ParserRoundTripsEveryClause) {
  const FaultPlan plan = parse_fault_plan(
      "tracker:500:200; seed:2000:400; churn:1200:0.5:0.8:0.2; "
      "bw:100:50:0.5; tracker:900:30:drop; tracker:1500:10:queue:2.5");
  ASSERT_EQ(plan.tracker_outages.size(), 3u);
  EXPECT_EQ(plan.tracker_outages[0].start, 500.0);
  EXPECT_EQ(plan.tracker_outages[0].duration, 200.0);
  EXPECT_FALSE(plan.tracker_outages[0].drop);
  EXPECT_TRUE(plan.tracker_outages[1].drop);
  EXPECT_FALSE(plan.tracker_outages[2].drop);
  EXPECT_EQ(plan.tracker_outages[2].readmit_rate, 2.5);
  ASSERT_EQ(plan.seed_failures.size(), 1u);
  EXPECT_EQ(plan.seed_failures[0].start, 2000.0);
  ASSERT_EQ(plan.churn_bursts.size(), 1u);
  EXPECT_EQ(plan.churn_bursts[0].time, 1200.0);
  EXPECT_EQ(plan.churn_bursts[0].kill_fraction, 0.5);
  EXPECT_EQ(plan.churn_bursts[0].progress_loss, 0.8);
  EXPECT_EQ(plan.churn_bursts[0].backoff_rate, 0.2);
  ASSERT_EQ(plan.bandwidth_faults.size(), 1u);
  EXPECT_EQ(plan.bandwidth_faults[0].scale, 0.5);
  EXPECT_EQ(plan.size(), 6u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, ParserRejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_plan("quake:1:2"), ConfigError);
  EXPECT_THROW(parse_fault_plan("tracker:500"), ConfigError);
  EXPECT_THROW(parse_fault_plan("tracker:500:abc"), ConfigError);
  EXPECT_THROW(parse_fault_plan("tracker:500:10:sometimes"), ConfigError);
  EXPECT_THROW(parse_fault_plan("bw:0:10"), ConfigError);
  EXPECT_THROW(parse_fault_plan("churn:10:1.5"), ConfigError);
}

TEST(FaultPlanTest, ValidateRejectsBadRangesAndOverlaps) {
  FaultPlan plan;
  plan.bandwidth_faults.push_back({0.0, 10.0, 1.5});
  EXPECT_THROW(plan.validate(), ConfigError);

  plan = FaultPlan{};
  plan.tracker_outages.push_back({100.0, 50.0, false, 1.0});
  plan.tracker_outages.push_back({120.0, 50.0, false, 1.0});  // overlaps
  EXPECT_THROW(plan.validate(), ConfigError);

  plan = FaultPlan{};
  plan.seed_failures.push_back({100.0, 0.0});  // empty window
  EXPECT_THROW(plan.validate(), ConfigError);

  plan = FaultPlan{};
  plan.churn_bursts.push_back({100.0, 0.5, 0.5, 0.0});  // no backoff rate
  EXPECT_THROW(plan.validate(), ConfigError);

  // Back-to-back windows (end == next start) are fine.
  plan = FaultPlan{};
  plan.tracker_outages.push_back({100.0, 50.0, false, 1.0});
  plan.tracker_outages.push_back({150.0, 50.0, false, 1.0});
  EXPECT_NO_THROW(plan.validate());
  EXPECT_TRUE(FaultPlan{}.empty());
}

// ---- replication isolation ------------------------------------------------

// One replication blowing past max_active_peers (a SolverError mid-run)
// must surface in `failures` without discarding its siblings' results.
TEST(FaultSimTest, ReplicationFailuresAreIsolated) {
  SimConfig c = base_config(fluid::SchemeKind::kMtcd);
  const std::size_t reps = 6;

  // Find a peer-cap threshold that separates the derived seeds: run the
  // replications unconstrained, then cap between the smallest and largest
  // observed peaks so some seeds trip the cap and some survive.
  const ReplicationSummary clean = run_replications(c, reps);
  ASSERT_EQ(clean.runs.size(), reps);
  ASSERT_TRUE(clean.failures.empty());
  std::size_t lo = std::numeric_limits<std::size_t>::max();
  std::size_t hi = 0;
  for (const SimResult& r : clean.runs) {
    lo = std::min(lo, r.peak_live_peers);
    hi = std::max(hi, r.peak_live_peers);
  }
  ASSERT_LT(lo, hi) << "seeds produced identical peaks; widen the scenario";

  SimConfig capped = c;
  capped.max_active_peers = (lo + hi) / 2;
  const ReplicationSummary mixed = run_replications(capped, reps);
  EXPECT_FALSE(mixed.failures.empty());
  EXPECT_FALSE(mixed.runs.empty());
  EXPECT_EQ(mixed.failures.size() + mixed.runs.size(), reps);
  for (const ReplicationFailure& f : mixed.failures) {
    EXPECT_LT(f.index, reps);
    EXPECT_FALSE(f.message.empty());
  }
  // Survivor aggregates are real numbers, not poisoned by the failures.
  EXPECT_GT(mixed.mean_online_per_file, 0.0);

  // Every replication failing surfaces as a SolverError naming the first.
  SimConfig hopeless = c;
  hopeless.max_active_peers = 1;
  EXPECT_THROW(run_replications(hopeless, 3), SolverError);
}

}  // namespace
}  // namespace btmf::sim
