// Scale determinism contract: the sharded kernel's SimResult is a pure
// function of SimConfig MINUS the execution knobs. Every field — metrics,
// trajectories, obs counters, fault/recovery counters — must be
// bit-identical across every shards x kernel_threads configuration, with
// shards = 1 defining the reference. docs/SCALE.md states the contract;
// this suite enforces it for all four schemes, with and without an
// active fault plan. (No goldens: each case compares run vs run.)
#include <cstddef>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "btmf/obs/metrics.h"
#include "btmf/obs/timeseries.h"
#include "btmf/obs/trace.h"
#include "btmf/sim/faults.h"
#include "btmf/sim/policies.h"
#include "btmf/sim/sharded_kernel.h"
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

/// What a run left in the caller's sinks.
struct SinkReadout {
  obs::MetricsSnapshot metrics;
  std::map<std::string, obs::SeriesData> series;
  /// (epoch, t_end) of each sharded.epoch instant, per shard, in the
  /// order the trace holds them.
  std::vector<std::vector<std::pair<unsigned, double>>> epochs;
};

SinkReadout run_with_sinks(unsigned shards, unsigned threads) {
  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder recorder;
  obs::TraceWriter trace("shard_determinism_test");
  SimConfig c = scale_config(fluid::SchemeKind::kMtcd, false);
  c.shards = shards;
  c.kernel_threads = threads;
  c.obs.metrics = &metrics;
  c.obs.recorder = &recorder;
  c.obs.trace = &trace;
  run_simulation(c);

  SinkReadout out{metrics.snapshot(), recorder.all(), {}};
  out.epochs.resize(shards);
  const std::string json = trace.to_json();
  const auto number = [&json](std::size_t from, const std::string& key) {
    const std::size_t at = json.find("\"" + key + "\": ", from);
    EXPECT_NE(at, std::string::npos) << key;
    return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
  };
  const std::string tag = "\"sharded.epoch\"";
  for (std::size_t at = json.find(tag); at != std::string::npos;
       at = json.find(tag, at + tag.size())) {
    const auto shard = static_cast<std::size_t>(number(at, "shard"));
    if (shard >= out.epochs.size()) {
      ADD_FAILURE() << "instant of shard " << shard;
      continue;
    }
    out.epochs[shard].emplace_back(
        static_cast<unsigned>(number(at, "epoch")), number(at, "t_end"));
  }
  return out;
}

// The caller's sinks are layout-invariant too: the merge feeds the
// sim.user_* histograms in admission order and exports the merged
// series, so every histogram, every counter outside the shard-level
// sim.kernel.* extras and every imported series match shards = 1. Each
// shard traces its 16 epoch ends, and the barrier wait is never negative.
TEST(ScaleDeterminismTest, SinksAreBitIdenticalAcrossShardsAndThreads) {
  const double horizon = scale_config(fluid::SchemeKind::kMtcd, false).horizon;
  const auto expect_epochs = [horizon](const SinkReadout& r) {
    for (std::size_t s = 0; s < r.epochs.size(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      ASSERT_EQ(r.epochs[s].size(), ShardedKernel::kEpochs);
      for (unsigned e = 1; e <= ShardedKernel::kEpochs; ++e) {
        EXPECT_EQ(r.epochs[s][e - 1].first, e);
        EXPECT_EQ(r.epochs[s][e - 1].second,
                  horizon * e / ShardedKernel::kEpochs);
      }
    }
  };

  const SinkReadout reference = run_with_sinks(1, 1);
  expect_epochs(reference);
  EXPECT_EQ(reference.metrics.gauges.at("sim.kernel.barrier_wait_s"), 0.0);
  ASSERT_EQ(reference.metrics.histograms.size(), 3u);
  EXPECT_GT(reference.metrics.histograms.at("sim.user_files").count, 0u);
  EXPECT_EQ(reference.series.count("kernel.arrival_rate"), 1u);

  for (const unsigned shards : {2U, 4U}) {
    for (const unsigned threads : {1U, 2U}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const SinkReadout r = run_with_sinks(shards, threads);
      expect_epochs(r);
      EXPECT_GE(r.metrics.gauges.at("sim.kernel.barrier_wait_s"), 0.0);

      ASSERT_EQ(r.metrics.histograms.size(),
                reference.metrics.histograms.size());
      for (const auto& [name, want] : reference.metrics.histograms) {
        SCOPED_TRACE(name);
        const obs::HistogramSnapshot& got = r.metrics.histograms.at(name);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.sum, want.sum);
        EXPECT_EQ(got.min, want.min);
        EXPECT_EQ(got.max, want.max);
        EXPECT_EQ(got.bucket_bounds, want.bucket_bounds);
        EXPECT_EQ(got.bucket_counts, want.bucket_counts);
      }
      for (const auto& [name, want] : reference.metrics.counters) {
        if (name.starts_with("sim.kernel.")) continue;
        EXPECT_EQ(r.metrics.counters.at(name), want) << name;
      }

      ASSERT_EQ(r.series.size(), reference.series.size());
      for (const auto& [name, want] : reference.series) {
        SCOPED_TRACE(name);
        ASSERT_EQ(r.series.count(name), 1u);
        EXPECT_EQ(r.series.at(name).t, want.t);
        EXPECT_EQ(r.series.at(name).v, want.v);
      }
    }
  }
}

// A shard that throws inside the run's one fan_out surfaces as the same
// typed error in every layout: each shard guards its own population, and
// fan_out joins every shard before it rethrows.
TEST(ScaleDeterminismTest, ShardErrorsKeepTheirTypeInEveryLayout) {
  for (const unsigned shards : {1U, 2U, 4U}) {
    for (const unsigned threads : {1U, 2U}) {
      SimConfig c = scale_config(fluid::SchemeKind::kMtcd, false);
      c.max_active_peers = 5;
      c.shards = shards;
      c.kernel_threads = threads;
      EXPECT_THROW((void)run_simulation(c), SolverError)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

// A decomposed kernel reserves its sample rows before the first event,
// but a bounded number of them: a cadence asking for 5e15 samples must
// still construct (the rows then grow as the samples arrive).
TEST(ScaleDeterminismTest, TinySampleCadenceReservesABoundedGrid) {
  SimConfig c = scale_config(fluid::SchemeKind::kMtcd, false);
  c.obs.sample_dt = 1e-13;
  const std::unique_ptr<SchemePolicy> policy = make_mtcd_policy();
  EXPECT_NO_THROW({
    const EventKernel kernel(c, *policy, ShardSpec{0, 1, true});
  });
}

// The paranoid auditor must hold across the epoch ends too: every
// invariant walk (per-shard heaps, live lists, population pools, and each
// shard's epoch clock) runs at each epoch end without tripping.
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
