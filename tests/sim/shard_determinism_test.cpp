// Scale determinism contract: the sharded kernel's SimResult is a pure
// function of SimConfig MINUS the execution knobs. Every field — metrics,
// trajectories, obs counters, fault/recovery counters — must be
// bit-identical across every shards x kernel_threads configuration, with
// shards = 1 defining the reference. docs/SCALE.md states the contract;
// this suite enforces it for all four schemes, with and without an
// active fault plan. (No goldens: each case compares run vs run.)
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "btmf/sim/faults.h"
#include "btmf/sim/simulator.h"
#include "btmf/util/error.h"

namespace btmf::sim {
namespace {

SimConfig scale_config(fluid::SchemeKind scheme, bool with_faults) {
  SimConfig c;
  c.scheme = scheme;
  c.num_files = 4;
  c.correlation = 0.5;
  c.visit_rate = 2.0;
  c.horizon = 500.0;
  c.warmup = 125.0;
  c.seed = 913;
  c.abort_rate = 0.01;
  if (scheme == fluid::SchemeKind::kCmfsd) {
    c.rho = 0.3;
    c.abort_rate = 0.0;  // CMFSD path models aborts separately
  }
  if (with_faults) {
    c.faults.churn_bursts.push_back({200.0, 0.5, 1.0, 2.0});
    c.faults.bandwidth_faults.push_back({250.0, 60.0, 0.5});
  }
  return c;
}

void expect_bit_identical(const SimResult& a, const SimResult& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t k = 0; k < a.classes.size(); ++k) {
    SCOPED_TRACE("class " + std::to_string(k + 1));
    const PerClassResult& x = a.classes[k];
    const PerClassResult& y = b.classes[k];
    EXPECT_EQ(x.completed_users, y.completed_users);
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
  // Headline metrics.
  EXPECT_EQ(a.avg_online_per_file, b.avg_online_per_file);
  EXPECT_EQ(a.avg_download_per_file, b.avg_download_per_file);
  EXPECT_EQ(a.avg_online_per_user, b.avg_online_per_user);
  EXPECT_EQ(a.measured_time, b.measured_time);
  // Population accounting.
  EXPECT_EQ(a.total_users, b.total_users);
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.censored_users, b.censored_users);
  EXPECT_EQ(a.aborted_users, b.aborted_users);
  // Observability counters (everything but the wall clock).
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rate_epochs, b.rate_epochs);
  EXPECT_EQ(a.peak_live_peers, b.peak_live_peers);
  // Fault & recovery counters.
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.downloads_killed, b.downloads_killed);
  EXPECT_EQ(a.arrivals_dropped, b.arrivals_dropped);
  EXPECT_EQ(a.arrivals_queued, b.arrivals_queued);
  EXPECT_EQ(a.readmissions, b.readmissions);
  EXPECT_EQ(a.readmission_queue_peak, b.readmission_queue_peak);
  EXPECT_EQ(a.time_to_recover, b.time_to_recover);
  EXPECT_EQ(a.faults_unrecovered, b.faults_unrecovered);
  // Trajectories, elementwise.
  EXPECT_EQ(a.rho_trajectory_time, b.rho_trajectory_time);
  EXPECT_EQ(a.rho_trajectory_mean, b.rho_trajectory_mean);
  EXPECT_EQ(a.population_time, b.population_time);
  EXPECT_EQ(a.downloaders_trajectory, b.downloaders_trajectory);
  EXPECT_EQ(a.seeds_trajectory, b.seeds_trajectory);
}

struct ScaleCase {
  fluid::SchemeKind scheme;
  bool with_faults;
};

class ScaleDeterminismTest : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(ScaleDeterminismTest, BitIdenticalAcrossShardsAndThreads) {
  const ScaleCase& param = GetParam();
  SimConfig reference_cfg = scale_config(param.scheme, param.with_faults);
  reference_cfg.shards = 1;
  reference_cfg.kernel_threads = 1;
  const SimResult reference = run_simulation(reference_cfg);

  // Faulted runs cannot shard (the fault layer is globally coupled):
  // shards > 1 with a plan is a typed ConfigError, never a silent
  // fallback — and the single-shard faulted run must still be
  // bit-identical across thread counts.
  const std::vector<unsigned> shard_counts =
      param.with_faults ? std::vector<unsigned>{1U}
                        : std::vector<unsigned>{2U, 7U};
  for (const unsigned shards : shard_counts) {
    for (const unsigned threads : {0U, 1U, 4U}) {
      SimConfig c = scale_config(param.scheme, param.with_faults);
      c.shards = shards;
      c.kernel_threads = threads;
      expect_bit_identical(reference, run_simulation(c),
                           "shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads));
    }
  }
  if (param.with_faults) {
    SimConfig c = scale_config(param.scheme, true);
    c.shards = 2;
    EXPECT_THROW(run_simulation(c), ConfigError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ScaleDeterminismTest,
    ::testing::Values(ScaleCase{fluid::SchemeKind::kMtcd, false},
                      ScaleCase{fluid::SchemeKind::kMtcd, true},
                      ScaleCase{fluid::SchemeKind::kMtsd, false},
                      ScaleCase{fluid::SchemeKind::kMtsd, true},
                      ScaleCase{fluid::SchemeKind::kMfcd, false},
                      ScaleCase{fluid::SchemeKind::kMfcd, true},
                      ScaleCase{fluid::SchemeKind::kCmfsd, false},
                      ScaleCase{fluid::SchemeKind::kCmfsd, true}),
    [](const auto& tpi) {
      std::string name;
      switch (tpi.param.scheme) {
        case fluid::SchemeKind::kMtcd: name = "Mtcd"; break;
        case fluid::SchemeKind::kMtsd: name = "Mtsd"; break;
        case fluid::SchemeKind::kMfcd: name = "Mfcd"; break;
        case fluid::SchemeKind::kCmfsd: name = "Cmfsd"; break;
        default: name = "Unknown"; break;
      }
      return name + (tpi.param.with_faults ? "Faulted" : "Clean");
    });

// Events of different torrents can fall a few ulps apart. One kernel that
// holds every torrent must still dispatch each at its own time, exactly
// as separate shards do; a kernel that batched events within 1e-12 of
// each other gave shards = 1 a different avg_online_per_file on this cell
// (K = 10, lambda0 = 9 hits such near-ties within a few hundred time
// units; the K = 4 configs above do not).
TEST(ScaleDeterminismTest, NearSimultaneousTorrentEventsIgnoreShardLayout) {
  SimConfig base;
  base.scheme = fluid::SchemeKind::kMtcd;
  base.num_files = 10;
  base.correlation = 0.7;
  base.visit_rate = 9.0;
  base.horizon = 400.0;
  base.warmup = 100.0;
  base.seed = 1;
  const SimResult reference = run_simulation(base);  // shards = 1
  for (const unsigned shards : {2U, 4U}) {
    SimConfig c = base;
    c.shards = shards;
    expect_bit_identical(reference, run_simulation(c),
                         "shards=" + std::to_string(shards));
  }
}

// The paranoid auditor must hold across the epoch barriers too: every
// invariant walk (per-shard heaps, live lists, population pools, and the
// cross-shard epoch clock) runs at each barrier without tripping.
// (Faulted plans cannot shard, so the sharded paranoid walk runs clean
// and the faulted one runs on the single-shard decomposed path.)
TEST(ScaleDeterminismTest, ParanoidAuditCleanUnderSharding) {
  SimConfig c = scale_config(fluid::SchemeKind::kMtcd, false);
  c.paranoid = true;
  c.shards = 3;
  c.kernel_threads = 2;
  SimConfig serial = scale_config(fluid::SchemeKind::kMtcd, false);
  expect_bit_identical(run_simulation(serial), run_simulation(c),
                       "paranoid shards=3 threads=2");
}

TEST(ScaleDeterminismTest, ParanoidAuditCleanFaultedSingleShard) {
  SimConfig c = scale_config(fluid::SchemeKind::kMtcd, true);
  c.paranoid = true;
  SimConfig serial = scale_config(fluid::SchemeKind::kMtcd, true);
  expect_bit_identical(run_simulation(serial), run_simulation(c),
                       "paranoid faulted single shard");
}

}  // namespace
}  // namespace btmf::sim
