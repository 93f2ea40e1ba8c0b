// Determinism regression: one seed, one trajectory.
//
// The event kernel promises that every quantity in SimResult except the
// wall clock is a pure function of SimConfig — tie-breaks in the event
// queues are total orders and replication seeds are derived, never
// shared. These tests pin that promise down: re-running a config must be
// bit-identical, and run_replications must match a serial loop over the
// derived seeds however its runs were spread over threads.
#include <gtest/gtest.h>

#include <cstddef>

#include "btmf/math/stats.h"
#include "btmf/parallel/seeds.h"
#include "btmf/sim/simulator.h"

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

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t k = 0; k < a.classes.size(); ++k) {
    const PerClassResult& x = a.classes[k];
    const PerClassResult& y = b.classes[k];
    EXPECT_EQ(x.completed_users, y.completed_users) << "class " << k + 1;
    EXPECT_EQ(x.arrival_rate, y.arrival_rate);
    EXPECT_EQ(x.mean_online_per_file, y.mean_online_per_file);
    EXPECT_EQ(x.ci_online_per_file, y.ci_online_per_file);
    EXPECT_EQ(x.mean_download_per_file, y.mean_download_per_file);
    EXPECT_EQ(x.ci_download_per_file, y.ci_download_per_file);
    EXPECT_EQ(x.avg_downloaders, y.avg_downloaders);
    EXPECT_EQ(x.avg_seeds, y.avg_seeds);
    EXPECT_EQ(x.little_download_time, y.little_download_time);
    EXPECT_EQ(x.little_online_time, y.little_online_time);
    EXPECT_EQ(x.mean_final_rho, y.mean_final_rho);
  }
  EXPECT_EQ(a.avg_online_per_file, b.avg_online_per_file);
  EXPECT_EQ(a.avg_download_per_file, b.avg_download_per_file);
  EXPECT_EQ(a.avg_online_per_user, b.avg_online_per_user);
  EXPECT_EQ(a.measured_time, b.measured_time);
  EXPECT_EQ(a.total_users, b.total_users);
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.censored_users, b.censored_users);
  EXPECT_EQ(a.aborted_users, b.aborted_users);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rate_epochs, b.rate_epochs);
  EXPECT_EQ(a.peak_live_peers, b.peak_live_peers);
  EXPECT_EQ(a.rho_trajectory_time, b.rho_trajectory_time);
  EXPECT_EQ(a.rho_trajectory_mean, b.rho_trajectory_mean);
}

class DeterminismTest : public ::testing::TestWithParam<fluid::SchemeKind> {};

TEST_P(DeterminismTest, SameSeedBitIdenticalResult) {
  SimConfig c = base_config(GetParam());
  if (GetParam() != fluid::SchemeKind::kCmfsd) c.abort_rate = 0.01;
  expect_identical(run_simulation(c), run_simulation(c));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DeterminismTest,
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

TEST(DeterminismTest, ReplicationsMatchTheSerialReference) {
  const SimConfig c = base_config(fluid::SchemeKind::kMtcd);
  const ReplicationSummary summary = run_replications(c, 6);
  ASSERT_EQ(summary.runs.size(), 6u);
  math::RunningStats online, download;
  for (std::size_t r = 0; r < summary.runs.size(); ++r) {
    SimConfig rep = c;
    rep.seed = parallel::derive_seed(c.seed, r);
    const SimResult serial = run_simulation(rep);
    expect_identical(serial, summary.runs[r]);
    online.add(serial.avg_online_per_file);
    download.add(serial.avg_download_per_file);
  }
  EXPECT_EQ(summary.mean_online_per_file, online.mean());
  EXPECT_EQ(summary.stderr_online_per_file, online.stderr_mean());
  EXPECT_EQ(summary.mean_download_per_file, download.mean());
}

TEST(DeterminismTest, SingleReplicationHasZeroStandardError) {
  const SimConfig c = base_config(fluid::SchemeKind::kMtsd);
  const ReplicationSummary s = run_replications(c, 1);
  ASSERT_EQ(s.runs.size(), 1u);
  EXPECT_EQ(s.stderr_online_per_file, 0.0);
  EXPECT_EQ(s.stderr_download_per_file, 0.0);
  // The means are just the single run's values.
  EXPECT_EQ(s.mean_online_per_file, s.runs[0].avg_online_per_file);
  EXPECT_EQ(s.mean_download_per_file, s.runs[0].avg_download_per_file);
}

}  // namespace
}  // namespace btmf::sim
