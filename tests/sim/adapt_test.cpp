// Tests of the Adapt mechanism (paper Sec. 4.3 — proposed there, evaluated
// here; its systematic evaluation is the paper's stated future work).
#include <gtest/gtest.h>

#include "btmf/sim/simulator.h"

namespace btmf::sim {
namespace {

SimConfig adapt_config(double p, double cheater_fraction) {
  SimConfig c;
  c.scheme = fluid::SchemeKind::kCmfsd;
  c.num_files = 5;
  c.correlation = p;
  c.visit_rate = 1.0;
  c.cheater_fraction = cheater_fraction;
  c.adapt.enabled = true;
  c.adapt.initial_rho = 0.0;
  c.adapt.period = 20.0;
  c.horizon = 3000.0;
  c.warmup = 800.0;
  c.seed = 11;
  return c;
}

TEST(AdaptTest, TrajectoryIsRecorded) {
  const SimResult r = run_simulation(adapt_config(0.9, 0.0));
  ASSERT_FALSE(r.rho_trajectory_time.empty());
  // Samples are taken at the Adapt tick cadence after warm-up.
  EXPECT_GE(r.rho_trajectory_time.front(), 800.0);
  for (const double rho : r.rho_trajectory_mean) {
    EXPECT_GE(rho, 0.0);
    EXPECT_LE(rho, 1.0);
  }
}

TEST(AdaptTest, ObedientHighCorrelationSystemStaysGenerous) {
  // With everyone obedient at high p, contributions and receipts roughly
  // balance inside the dead band, so rho stays near the initial 0 and the
  // system keeps the CMFSD(rho=0) performance.
  const SimResult r = run_simulation(adapt_config(0.9, 0.0));
  ASSERT_FALSE(r.rho_trajectory_mean.empty());
  const double final_rho = r.rho_trajectory_mean.back();
  EXPECT_LT(final_rho, 0.35);
  EXPECT_LT(r.avg_online_per_file, 75.0);  // far below the ~98 of rho = 1
}

TEST(AdaptTest, CheaterMajorityDrivesObedientRhoUp) {
  // The paper's prediction: when most peers cheat, obedient peers detect
  // the persistent over-contribution (Delta > phi_hi) and self-protect,
  // pushing rho toward 1 (the system degenerates to MFCD-like behaviour).
  const SimResult honest = run_simulation(adapt_config(0.9, 0.0));
  const SimResult cheated = run_simulation(adapt_config(0.9, 0.85));
  ASSERT_FALSE(honest.rho_trajectory_mean.empty());
  ASSERT_FALSE(cheated.rho_trajectory_mean.empty());
  EXPECT_GT(cheated.rho_trajectory_mean.back(),
            honest.rho_trajectory_mean.back() + 0.2);
}

TEST(AdaptTest, StepSizeZeroFreezesRho) {
  SimConfig c = adapt_config(0.9, 0.5);
  c.adapt.step_up = 0.0;
  c.adapt.step_down = 0.0;
  const SimResult r = run_simulation(c);
  for (const double rho : r.rho_trajectory_mean) {
    EXPECT_DOUBLE_EQ(rho, c.adapt.initial_rho);
  }
}

TEST(AdaptTest, InitialRhoIsRespected) {
  SimConfig c = adapt_config(0.9, 0.0);
  c.adapt.initial_rho = 0.6;
  c.adapt.step_up = 0.0;
  c.adapt.step_down = 0.0;
  const SimResult r = run_simulation(c);
  ASSERT_FALSE(r.rho_trajectory_mean.empty());
  EXPECT_NEAR(r.rho_trajectory_mean.front(), 0.6, 1e-9);
}

TEST(AdaptTest, WideDeadBandSuppressesAdaptation) {
  SimConfig narrow = adapt_config(0.9, 0.85);
  SimConfig wide = narrow;
  wide.adapt.phi_lo = -1.0;  // absurdly wide: Delta never leaves the band
  wide.adapt.phi_hi = 1.0;
  const SimResult n = run_simulation(narrow);
  const SimResult w = run_simulation(wide);
  ASSERT_FALSE(w.rho_trajectory_mean.empty());
  EXPECT_NEAR(w.rho_trajectory_mean.back(), 0.0, 1e-12);
  EXPECT_GT(n.rho_trajectory_mean.back(), 0.2);
}

TEST(AdaptTest, ReplicationSummaryAveragesRho) {
  SimConfig c = adapt_config(0.9, 0.85);
  c.horizon = 2000.0;
  c.warmup = 600.0;
  const ReplicationSummary summary = run_replications(c, 3);
  ASSERT_EQ(summary.runs.size(), 3u);
  // Multi-file classes report their departure-time rho.
  bool any_positive = false;
  for (unsigned k = 1; k < c.num_files; ++k) {
    if (summary.class_mean_final_rho[k] > 0.05) any_positive = true;
  }
  EXPECT_TRUE(any_positive);
}

}  // namespace
}  // namespace btmf::sim
