#include "btmf/sim/simulator.h"

#include <gtest/gtest.h>

#include "btmf/fluid/correlation.h"
#include "btmf/util/error.h"

namespace btmf::sim {
namespace {

SimConfig small_config(fluid::SchemeKind scheme) {
  SimConfig c;
  c.scheme = scheme;
  c.num_files = 5;
  c.correlation = 0.5;
  c.visit_rate = 1.0;
  c.horizon = 2500.0;
  c.warmup = 600.0;
  c.seed = 99;
  return c;
}

TEST(MultiTorrentSimTest, DeterministicForFixedSeed) {
  const SimConfig c = small_config(fluid::SchemeKind::kMtsd);
  const SimResult a = run_simulation(c);
  const SimResult b = run_simulation(c);
  EXPECT_EQ(a.total_users, b.total_users);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_DOUBLE_EQ(a.avg_online_per_file, b.avg_online_per_file);
}

TEST(MultiTorrentSimTest, DifferentSeedsDiffer) {
  SimConfig c = small_config(fluid::SchemeKind::kMtsd);
  const SimResult a = run_simulation(c);
  c.seed = 100;
  const SimResult b = run_simulation(c);
  EXPECT_NE(a.avg_online_per_file, b.avg_online_per_file);
}

TEST(MultiTorrentSimTest, MtsdMatchesRateIndependentFluidPrediction) {
  // T + 1/gamma = 80 per file regardless of correlation or visit rate.
  const SimResult r =
      run_simulation(small_config(fluid::SchemeKind::kMtsd));
  EXPECT_GT(r.total_users, 500u);
  EXPECT_NEAR(r.avg_online_per_file, 80.0, 4.0);
  EXPECT_NEAR(r.avg_download_per_file, 60.0, 3.0);
}

TEST(MultiTorrentSimTest, MtsdPerFileFairAcrossClasses) {
  const SimResult r =
      run_simulation(small_config(fluid::SchemeKind::kMtsd));
  for (unsigned k = 0; k < 5; ++k) {
    if (r.classes[k].completed_users < 30) continue;
    EXPECT_NEAR(r.classes[k].mean_online_per_file, 80.0, 8.0)
        << "class " << k + 1;
  }
}

TEST(MultiTorrentSimTest, MtcdMultiFileClassesFasterPerFile) {
  // Fig. 3's structural claim: under MTCD, per-file online time falls
  // with the class index (A + 1/(i gamma)).
  const SimResult r =
      run_simulation(small_config(fluid::SchemeKind::kMtcd));
  const auto& c1 = r.classes[0];
  const auto& c4 = r.classes[3];
  ASSERT_GT(c1.completed_users, 50u);
  ASSERT_GT(c4.completed_users, 50u);
  EXPECT_GT(c1.mean_online_per_file, c4.mean_online_per_file);
}

TEST(MultiTorrentSimTest, MfcdAndMtcdAgreeOnLittleMetrics) {
  // The paper's equivalence claim, tested at the agent level through the
  // population/arrival (Little's law) view.
  SimConfig c = small_config(fluid::SchemeKind::kMtcd);
  c.correlation = 1.0;
  c.horizon = 3000.0;
  const SimResult mtcd = run_simulation(c);
  c.scheme = fluid::SchemeKind::kMfcd;
  const SimResult mfcd = run_simulation(c);
  const auto& a = mtcd.classes[4];  // class 5 (= K) is the only one at p=1
  const auto& b = mfcd.classes[4];
  ASSERT_GT(a.completed_users, 100u);
  ASSERT_GT(b.completed_users, 100u);
  EXPECT_NEAR(a.little_online_time, b.little_online_time,
              0.12 * a.little_online_time);
}

TEST(MultiTorrentSimTest, ArrivalRatesMatchBinomialModel) {
  SimConfig c = small_config(fluid::SchemeKind::kMtsd);
  c.horizon = 4000.0;
  const SimResult r = run_simulation(c);
  const fluid::CorrelationModel corr(c.num_files, c.correlation,
                                     c.visit_rate);
  for (unsigned i = 1; i <= c.num_files; ++i) {
    const double expected = corr.system_entry_rate(i);
    EXPECT_NEAR(r.classes[i - 1].arrival_rate, expected,
                0.25 * expected + 0.02)
        << "class " << i;
  }
}

TEST(MultiTorrentSimTest, CensoredUsersAreCounted) {
  SimConfig c = small_config(fluid::SchemeKind::kMtcd);
  c.horizon = 900.0;  // too short for most visits to finish
  c.warmup = 100.0;
  const SimResult r = run_simulation(c);
  EXPECT_GT(r.censored_users, 0u);
}

TEST(MultiTorrentSimTest, RunawayPopulationGuardThrows) {
  SimConfig c = small_config(fluid::SchemeKind::kMtcd);
  c.max_active_peers = 10;
  EXPECT_THROW((void)run_simulation(c), SolverError);
}

TEST(MultiTorrentSimTest, SampleAndLittleViewsAgreeForMtsd) {
  // Two independent estimators of the same quantity.
  const SimResult r =
      run_simulation(small_config(fluid::SchemeKind::kMtsd));
  for (unsigned k = 0; k < 3; ++k) {
    const auto& cls = r.classes[k];
    if (cls.completed_users < 100) continue;
    EXPECT_NEAR(cls.little_online_time, cls.mean_online_per_file,
                0.12 * cls.mean_online_per_file)
        << "class " << k + 1;
  }
}

}  // namespace
}  // namespace btmf::sim
