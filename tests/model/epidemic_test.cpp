// Unit tests of the stochastic-epidemic backend in isolation: seed
// determinism, the structural MTSD readout, typed refusals, and the
// time-varying acceptance path. Agreement with the other backends lives
// in conformance_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "btmf/fluid/demand.h"
#include "btmf/fluid/schemes.h"
#include "btmf/model/backend.h"

namespace btmf::model {
namespace {

const Backend& epidemic() { return require_backend("stochastic-epidemic"); }

/// A CI-sized scenario: small K and a short horizon keep a Gillespie
/// path to a few thousand events per replication.
ScenarioSpec small_spec(fluid::SchemeKind scheme) {
  ScenarioSpec spec;
  spec.num_files = 3;
  spec.correlation = 0.7;
  spec.scheme = scheme;
  spec.horizon = 2000.0;
  spec.warmup = 500.0;
  spec.epidemic_replications = 4;
  spec.seed = 1234;
  return spec;
}

TEST(EpidemicBackendTest, IsRegisteredAsMonteCarlo) {
  EXPECT_EQ(epidemic().name(), "stochastic-epidemic");
  EXPECT_TRUE(epidemic().capabilities().monte_carlo);
  EXPECT_TRUE(epidemic().capabilities().arrivals_time_varying);
  EXPECT_FALSE(epidemic().capabilities().bandwidth_classes);
}

TEST(EpidemicBackendTest, DeterministicPerSeed) {
  const ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd);
  const Outcome first = epidemic().evaluate(spec);
  const Outcome second = epidemic().evaluate(spec);
  ASSERT_TRUE(first.ok()) << first.error;
  // Bitwise: replication seeds derive from spec.seed, nothing else.
  EXPECT_EQ(first.avg_download_per_file, second.avg_download_per_file);
  EXPECT_EQ(first.avg_online_per_file, second.avg_online_per_file);
  EXPECT_EQ(first.per_class.download_time, second.per_class.download_time);
  EXPECT_EQ(first.per_class.online_time, second.per_class.online_time);
}

TEST(EpidemicBackendTest, SeedChangesThePath) {
  ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd);
  const Outcome first = epidemic().evaluate(spec);
  spec.seed += 1;
  const Outcome second = epidemic().evaluate(spec);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first.avg_download_per_file, second.avg_download_per_file);
}

TEST(EpidemicBackendTest, MtsdReadoutScalesPerClass) {
  // MTSD simulates one representative torrent; class i downloads i files
  // sequentially, so its times are exact multiples of class 1's.
  const Outcome outcome =
      epidemic().evaluate(small_spec(fluid::SchemeKind::kMtsd));
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  ASSERT_EQ(outcome.per_class.num_classes(), 3u);
  const double t1 = outcome.per_class.download_time[0];
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(outcome.per_class.download_time[1], 2.0 * t1);
  EXPECT_DOUBLE_EQ(outcome.per_class.download_time[2], 3.0 * t1);
}

TEST(EpidemicBackendTest, RefusesCmfsdAndBandwidthClasses) {
  const Outcome cmfsd =
      epidemic().evaluate(small_spec(fluid::SchemeKind::kCmfsd));
  EXPECT_EQ(cmfsd.status, OutcomeStatus::kUnsupported);
  EXPECT_NE(cmfsd.error.find("CMFSD"), std::string::npos);

  ScenarioSpec classy = small_spec(fluid::SchemeKind::kMtcd);
  classy.bandwidth_classes = fluid::parse_classes("1,0.5,0|1,1.5,0");
  const Outcome refused = epidemic().evaluate(classy);
  EXPECT_EQ(refused.status, OutcomeStatus::kUnsupported);
  EXPECT_NE(refused.error.find("bandwidth"), std::string::npos);
}

TEST(EpidemicBackendTest, UnsampledClassIsNaNNotZero) {
  // A class with a positive rate but no downloader in [warmup, horizon]
  // in any replication has no measured time. It used to read download 0
  // and online 1/gamma, and the zeros pulled the averages down.
  const auto expect_unsampled = [](double correlation, std::uint64_t seed,
                                   std::size_t first, std::size_t last) {
    ScenarioSpec spec;  // default K = 10, 8 replications
    spec.correlation = correlation;
    spec.scheme = fluid::SchemeKind::kMtcd;
    spec.seed = seed;
    const Outcome o = epidemic().evaluate(spec);
    ASSERT_TRUE(o.ok()) << o.error;
    double numerator = 0.0;
    double denominator = 0.0;
    for (std::size_t i = 0; i < 10; ++i) {
      SCOPED_TRACE("class " + std::to_string(i + 1));
      ASSERT_GT(o.class_entry_rates[i], 0.0);
      if (i + 1 >= first && i + 1 <= last) {
        EXPECT_TRUE(std::isnan(o.per_class.download_time[i]));
        EXPECT_TRUE(std::isnan(o.per_class.online_time[i]));
        continue;
      }
      EXPECT_GT(o.per_class.download_time[i], 0.0);
      EXPECT_TRUE(std::isfinite(o.per_class.online_time[i]));
      numerator += o.class_entry_rates[i] * o.per_class.download_time[i];
      denominator += o.class_entry_rates[i] * static_cast<double>(i + 1);
    }
    // The averages are over the sampled classes only.
    EXPECT_DOUBLE_EQ(o.avg_download_per_file, numerator / denominator);
  };
  expect_unsampled(0.7, 2, 1, 1);   // class 1 at rate ~1e-4
  expect_unsampled(0.1, 7, 7, 10);   // the four rarest classes
}

TEST(EpidemicBackendTest, RunawayPopulationFailsTyped) {
  // At lambda0 = 1e8 a replication holds a million peers by t = 0.02 and
  // would go on to simulate about 10^8 events per unit of time. Like
  // kernel-sim's max_active_peers, the guard ends it as a typed failure.
  for (const fluid::SchemeKind scheme :
       {fluid::SchemeKind::kMtcd, fluid::SchemeKind::kMtsd}) {
    SCOPED_TRACE(fluid::to_string(scheme));
    ScenarioSpec spec = small_spec(scheme);
    spec.visit_rate = 1e8;
    spec.horizon = 1.0;
    spec.warmup = 0.5;
    const Outcome outcome = epidemic().evaluate(spec);
    EXPECT_EQ(outcome.status, OutcomeStatus::kFailed);
    EXPECT_NE(outcome.error.find("1000000 peers"), std::string::npos)
        << outcome.error;
  }
}

TEST(EpidemicBackendTest, AcceptsTimeVaryingArrivals) {
  ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd);
  spec.arrival = fluid::parse_arrival("diurnal,0.5,400,0");
  const Outcome outcome = epidemic().evaluate(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  EXPECT_GT(outcome.avg_download_per_file, 0.0);
  EXPECT_TRUE(std::isfinite(outcome.avg_download_per_file));
}

}  // namespace
}  // namespace btmf::model
