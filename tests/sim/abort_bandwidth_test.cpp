// Abort-rate and download-bandwidth-cap behaviour of every scheme, cross
// validated against the extended Qiu–Srikant closed forms (K = 1 makes
// every scheme a plain single torrent).
#include <gtest/gtest.h>

#include "btmf/fluid/extended.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/error.h"

namespace btmf::sim {
namespace {

SimConfig single_torrent_config(fluid::SchemeKind scheme) {
  SimConfig c;
  c.scheme = scheme;
  c.num_files = 1;
  c.correlation = 1.0;  // everyone requests the one file
  c.visit_rate = 1.0;
  c.horizon = 4000.0;
  c.warmup = 1000.0;
  c.seed = 5;
  return c;
}

TEST(AbortTest, NoAbortMeansNoAbortedUsers) {
  const SimResult r =
      run_simulation(single_torrent_config(fluid::SchemeKind::kMtsd));
  EXPECT_EQ(r.aborted_users, 0u);
}

TEST(AbortTest, MtsdAbortMatchesAbortAwareFluid) {
  SimConfig c = single_torrent_config(fluid::SchemeKind::kMtsd);
  c.abort_rate = 1.0 / 120.0;
  const SimResult r = run_simulation(c);

  fluid::ExtendedParams params;
  params.abort_rate = c.abort_rate;
  const fluid::ExtendedEquilibrium aware =
      fluid::abort_aware_single_torrent_equilibrium(params, c.visit_rate);
  const fluid::ExtendedEquilibrium transferable =
      fluid::extended_single_torrent_equilibrium(params, c.visit_rate);

  // The swarm matches the wasted-work (abort-aware) fixed point, not the
  // optimistic Qiu-Srikant theta-extension that books the partial
  // progress of aborting peers as completions.
  EXPECT_NEAR(r.classes[0].avg_downloaders, aware.downloaders,
              0.06 * aware.downloaders);
  EXPECT_NEAR(r.classes[0].mean_download_per_file, aware.download_time,
              0.05 * aware.download_time);
  const double total = static_cast<double>(r.total_users + r.aborted_users);
  ASSERT_GT(total, 300.0);
  EXPECT_NEAR(static_cast<double>(r.total_users) / total,
              aware.completion_fraction, 0.05);
  // ... and sits strictly on the slow side of the transferable model.
  EXPECT_GT(r.classes[0].avg_downloaders, 1.15 * transferable.downloaders);
}

TEST(AbortTest, CmfsdAbortMatchesAbortAwareFluid) {
  SimConfig c = single_torrent_config(fluid::SchemeKind::kCmfsd);
  c.abort_rate = 1.0 / 120.0;
  const SimResult r = run_simulation(c);
  fluid::ExtendedParams params;
  params.abort_rate = c.abort_rate;
  const fluid::ExtendedEquilibrium aware =
      fluid::abort_aware_single_torrent_equilibrium(params, c.visit_rate);
  EXPECT_NEAR(r.classes[0].avg_downloaders, aware.downloaders,
              0.06 * aware.downloaders);
  const double total = static_cast<double>(r.total_users + r.aborted_users);
  EXPECT_NEAR(static_cast<double>(r.total_users) / total,
              aware.completion_fraction, 0.05);
}

TEST(AbortTest, MtcdAbortsOnlyTheOneVirtualPeer) {
  SimConfig c;
  c.scheme = fluid::SchemeKind::kMtcd;
  c.num_files = 4;
  c.correlation = 0.9;
  c.visit_rate = 1.0;
  c.horizon = 2500.0;
  c.warmup = 600.0;
  // A user is "aborted" as soon as ANY of its ~4 concurrent virtual
  // peers gives up, and each peer races its ~350-unit download against
  // the patience clock, so per-user abort odds compound: with mean
  // patience 5000 about 1 - e^{-4*350/5000} ~ 25% of users still lose a
  // peer. Completers must simply dominate.
  c.abort_rate = 1.0 / 5000.0;
  const SimResult r = run_simulation(c);
  EXPECT_GT(r.aborted_users, 0u);
  EXPECT_GT(r.total_users, r.aborted_users);
}

TEST(AbortTest, MfcdAbortRemovesTheWholeUser) {
  // MFCD downloads random chunks across all files, so no file is
  // individually complete at abort time: the whole visit is abandoned.
  SimConfig c;
  c.scheme = fluid::SchemeKind::kMfcd;
  c.num_files = 4;
  c.correlation = 0.9;
  c.visit_rate = 1.0;
  c.horizon = 2500.0;
  c.warmup = 600.0;
  c.abort_rate = 1.0 / 800.0;
  const SimResult r = run_simulation(c);
  EXPECT_GT(r.aborted_users, 0u);
  EXPECT_GT(r.total_users, 0u);
  // Determinism still holds with the extra abort clocks.
  const SimResult again = run_simulation(c);
  EXPECT_EQ(r.aborted_users, again.aborted_users);
  EXPECT_DOUBLE_EQ(r.avg_online_per_file, again.avg_online_per_file);
}

TEST(AbortTest, AbortsReducePopulationVsNoAborts) {
  SimConfig base = single_torrent_config(fluid::SchemeKind::kMtsd);
  SimConfig impatient = base;
  impatient.abort_rate = 1.0 / 60.0;  // heavy impatience
  const SimResult a = run_simulation(base);
  const SimResult b = run_simulation(impatient);
  EXPECT_LT(b.classes[0].avg_downloaders, a.classes[0].avg_downloaders);
}

TEST(BandwidthCapTest, LooseCapChangesNothing) {
  SimConfig base = single_torrent_config(fluid::SchemeKind::kMtsd);
  SimConfig capped = base;
  capped.download_bw = 1.0;  // far above any achievable rate
  const SimResult a = run_simulation(base);
  const SimResult b = run_simulation(capped);
  EXPECT_DOUBLE_EQ(a.avg_online_per_file, b.avg_online_per_file);
}

TEST(BandwidthCapTest, TightCapProducesDownloadConstrainedRegime) {
  SimConfig c = single_torrent_config(fluid::SchemeKind::kMtsd);
  c.download_bw = 0.01;  // < c* = 1/60
  const SimResult r = run_simulation(c);
  fluid::ExtendedParams params;
  params.download_bw = c.download_bw;
  const fluid::ExtendedEquilibrium eq =
      fluid::extended_single_torrent_equilibrium(params, c.visit_rate);
  ASSERT_TRUE(eq.download_constrained);
  // T = 1/c = 100 per file.
  EXPECT_NEAR(r.classes[0].mean_download_per_file, eq.download_time,
              0.05 * eq.download_time);
  EXPECT_NEAR(r.classes[0].avg_downloaders, eq.downloaders,
              0.10 * eq.downloaders);
}

TEST(BandwidthCapTest, CmfsdCapAppliesPerUser) {
  SimConfig c;
  c.scheme = fluid::SchemeKind::kCmfsd;
  c.num_files = 5;
  c.correlation = 0.9;
  c.rho = 0.0;
  c.visit_rate = 1.0;
  c.horizon = 2500.0;
  c.warmup = 600.0;
  c.download_bw = 0.015;
  const SimResult r = run_simulation(c);
  // Per-file download time can never beat 1/c.
  for (unsigned k = 0; k < 5; ++k) {
    if (r.classes[k].completed_users < 30) continue;
    EXPECT_GE(r.classes[k].mean_download_per_file,
              1.0 / c.download_bw - 1.0);
  }
}

TEST(BandwidthCapTest, InvalidValuesRejected) {
  SimConfig c = single_torrent_config(fluid::SchemeKind::kMtsd);
  c.download_bw = 0.0;
  EXPECT_THROW((void)run_simulation(c), ConfigError);
  c = single_torrent_config(fluid::SchemeKind::kMtsd);
  c.abort_rate = -1.0;
  EXPECT_THROW((void)run_simulation(c), ConfigError);
}

}  // namespace
}  // namespace btmf::sim
