// ScenarioSpec: the canonical fingerprint must be sensitive to EVERY
// field (that is its whole contract — a cache keyed on it can never serve
// a stale result), and scheme_from_string must round-trip to_string.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "btmf/fluid/schemes.h"
#include "btmf/model/spec.h"
#include "btmf/util/error.h"

namespace btmf::model {
namespace {

using Mutation = std::pair<std::string, std::function<void(ScenarioSpec&)>>;

// One mutation per fingerprinted ScenarioSpec field (solver sub-fields
// and Adapt knobs included). Each leaves every other field at its default.
std::vector<Mutation> field_mutations() {
  std::vector<Mutation> m;
  auto add = [&m](std::string name, std::function<void(ScenarioSpec&)> fn) {
    m.emplace_back(std::move(name), std::move(fn));
  };
  add("num_files", [](ScenarioSpec& s) { s.num_files = 7; });
  add("correlation", [](ScenarioSpec& s) { s.correlation = 0.25; });
  add("visit_rate", [](ScenarioSpec& s) { s.visit_rate = 1.5; });
  add("fluid.mu", [](ScenarioSpec& s) { s.fluid.mu = 0.03; });
  add("fluid.eta", [](ScenarioSpec& s) { s.fluid.eta = 0.6; });
  add("fluid.gamma", [](ScenarioSpec& s) { s.fluid.gamma = 0.06; });
  add("scheme", [](ScenarioSpec& s) { s.scheme = fluid::SchemeKind::kMtcd; });
  add("rho", [](ScenarioSpec& s) { s.rho = 0.4; });
  add("rho_per_class", [](ScenarioSpec& s) {
    s.rho_per_class.assign(s.num_files, 0.3);
  });
  add("solver.rtol", [](ScenarioSpec& s) { s.solver.rtol *= 10.0; });
  add("solver.atol", [](ScenarioSpec& s) { s.solver.atol *= 10.0; });
  add("solver.max_steps", [](ScenarioSpec& s) { s.solver.max_steps += 1; });
  add("transient_samples", [](ScenarioSpec& s) { s.transient_samples = 100; });
  add("horizon", [](ScenarioSpec& s) { s.horizon = 5000.0; });
  add("warmup", [](ScenarioSpec& s) { s.warmup = 1000.0; });
  add("seed", [](ScenarioSpec& s) { s.seed = 43; });
  add("cheater_fraction", [](ScenarioSpec& s) { s.cheater_fraction = 0.2; });
  add("abort_rate", [](ScenarioSpec& s) { s.abort_rate = 0.01; });
  add("adapt.enabled", [](ScenarioSpec& s) { s.adapt.enabled = true; });
  add("adapt.initial_rho", [](ScenarioSpec& s) { s.adapt.initial_rho = 0.3; });
  add("adapt.period", [](ScenarioSpec& s) { s.adapt.period = 25.0; });
  add("adapt.phi_lo", [](ScenarioSpec& s) { s.adapt.phi_lo = -0.01; });
  add("adapt.phi_hi", [](ScenarioSpec& s) { s.adapt.phi_hi = 0.01; });
  add("adapt.step_up", [](ScenarioSpec& s) { s.adapt.step_up = 0.2; });
  add("adapt.step_down", [](ScenarioSpec& s) { s.adapt.step_down = 0.05; });
  add("adapt.consecutive", [](ScenarioSpec& s) { s.adapt.consecutive = 3; });
  add("faults.tracker", [](ScenarioSpec& s) {
    s.faults.tracker_outages.push_back({/*start=*/100.0, /*duration=*/50.0});
  });
  add("faults.seed_failure", [](ScenarioSpec& s) {
    s.faults.seed_failures.push_back({/*start=*/100.0, /*duration=*/50.0});
  });
  add("faults.churn", [](ScenarioSpec& s) {
    s.faults.churn_bursts.push_back({/*time=*/100.0});
  });
  add("faults.bandwidth", [](ScenarioSpec& s) {
    s.faults.bandwidth_faults.push_back({/*start=*/100.0, /*duration=*/50.0});
  });
  add("num_chunks", [](ScenarioSpec& s) { s.num_chunks = 64; });
  add("chunk_policy",
      [](ScenarioSpec& s) { s.chunk_policy = sim::PiecePolicy::kRandom; });
  add("chunk_suppression",
      [](ScenarioSpec& s) { s.chunk_suppression = 0.25; });
  return m;
}

TEST(ModelSpecTest, FingerprintIsStableForIdenticalSpecs) {
  EXPECT_EQ(ScenarioSpec{}.fingerprint(), ScenarioSpec{}.fingerprint());
}

TEST(ModelSpecTest, FingerprintChangesWhenAnyFieldChanges) {
  const std::string base = ScenarioSpec{}.fingerprint();
  std::set<std::string> seen{base};
  for (const auto& [name, mutate] : field_mutations()) {
    ScenarioSpec spec;
    mutate(spec);
    const std::string fp = spec.fingerprint();
    EXPECT_NE(fp, base) << "fingerprint blind to field: " << name;
    EXPECT_TRUE(seen.insert(fp).second)
        << "fingerprint collision for field: " << name;
  }
}

// Editing any single number inside any fault entry must change the
// fingerprint (reproduce.cpp keys its disk cache on it).
TEST(ModelSpecTest, FingerprintCoversEveryFaultField) {
  auto with_faults = [] {
    ScenarioSpec s;
    s.faults.tracker_outages.push_back(
        {/*start=*/100.0, /*duration=*/50.0, /*drop=*/false,
         /*readmit_rate=*/1.0});
    s.faults.seed_failures.push_back({/*start=*/200.0, /*duration=*/40.0});
    s.faults.churn_bursts.push_back(
        {/*time=*/300.0, /*kill_fraction=*/0.5, /*progress_loss=*/1.0,
         /*backoff_rate=*/1.0});
    s.faults.bandwidth_faults.push_back(
        {/*start=*/400.0, /*duration=*/30.0, /*scale=*/0.5});
    return s;
  };
  const std::string base = with_faults().fingerprint();

  using FaultMutation = std::pair<std::string, std::function<void(ScenarioSpec&)>>;
  const std::vector<FaultMutation> mutations = {
      {"tracker.start",
       [](ScenarioSpec& s) { s.faults.tracker_outages[0].start = 111.0; }},
      {"tracker.duration",
       [](ScenarioSpec& s) { s.faults.tracker_outages[0].duration = 55.0; }},
      {"tracker.drop",
       [](ScenarioSpec& s) { s.faults.tracker_outages[0].drop = true; }},
      {"tracker.readmit_rate",
       [](ScenarioSpec& s) {
         s.faults.tracker_outages[0].readmit_rate = 0.5;
       }},
      {"seed.start",
       [](ScenarioSpec& s) { s.faults.seed_failures[0].start = 222.0; }},
      {"seed.duration",
       [](ScenarioSpec& s) { s.faults.seed_failures[0].duration = 44.0; }},
      {"churn.time",
       [](ScenarioSpec& s) { s.faults.churn_bursts[0].time = 333.0; }},
      {"churn.kill_fraction",
       [](ScenarioSpec& s) { s.faults.churn_bursts[0].kill_fraction = 0.25; }},
      {"churn.progress_loss",
       [](ScenarioSpec& s) { s.faults.churn_bursts[0].progress_loss = 0.5; }},
      {"churn.backoff_rate",
       [](ScenarioSpec& s) { s.faults.churn_bursts[0].backoff_rate = 2.0; }},
      {"bandwidth.start",
       [](ScenarioSpec& s) { s.faults.bandwidth_faults[0].start = 444.0; }},
      {"bandwidth.duration",
       [](ScenarioSpec& s) { s.faults.bandwidth_faults[0].duration = 33.0; }},
      {"bandwidth.scale",
       [](ScenarioSpec& s) { s.faults.bandwidth_faults[0].scale = 0.25; }},
  };
  std::set<std::string> seen{base};
  for (const auto& [name, mutate] : mutations) {
    ScenarioSpec spec = with_faults();
    mutate(spec);
    const std::string fp = spec.fingerprint();
    EXPECT_NE(fp, base) << "fingerprint blind to fault field: " << name;
    EXPECT_TRUE(seen.insert(fp).second)
        << "fingerprint collision for fault field: " << name;
  }
}

TEST(ModelSpecTest, ValidateRejectsOutOfRangeFields) {
  {
    ScenarioSpec s;
    s.correlation = 1.5;
    EXPECT_THROW(s.validate(), ConfigError);
  }
  {
    ScenarioSpec s;
    s.rho = -0.1;
    EXPECT_THROW(s.validate(), ConfigError);
  }
  {
    ScenarioSpec s;
    s.rho_per_class.assign(3, 0.5);  // must be empty or num_files long
    EXPECT_THROW(s.validate(), ConfigError);
  }
  {
    ScenarioSpec s;
    s.warmup = s.horizon;  // warmup must lie strictly before the horizon
    EXPECT_THROW(s.validate(), ConfigError);
  }
  {
    ScenarioSpec s;
    s.transient_samples = 1;
    EXPECT_THROW(s.validate(), ConfigError);
  }
  EXPECT_NO_THROW(ScenarioSpec{}.validate());
}

TEST(ModelSpecTest, RefusesTransientSampleCountsAboveTheBound) {
  // Each sample is a state vector allocated before the first step: at
  // K = 20 CMFSD, 10^7 samples would ask for about 18 GB.
  ScenarioSpec s;
  s.transient_samples = 10'000'000;
  EXPECT_THROW(s.validate(), ConfigError);
  s.transient_samples = ScenarioSpec::kMaxTransientSamples + 1;
  EXPECT_THROW(s.validate(), ConfigError);
  s.transient_samples = ScenarioSpec::kMaxTransientSamples;
  EXPECT_NO_THROW(s.validate());
}

TEST(ModelSpecTest, RefusesFileCountsAboveTheBound) {
  // The fluid backends size their state from K before the first step:
  // K = 100000 CMFSD would hold about 5 * 10^9 states.
  ScenarioSpec s;
  s.num_files = 100'000;
  EXPECT_THROW(s.validate(), ConfigError);
  s.num_files = ScenarioSpec::kMaxFiles + 1;
  EXPECT_THROW(s.validate(), ConfigError);
  s.num_files = ScenarioSpec::kMaxFiles;
  EXPECT_NO_THROW(s.validate());
}

TEST(ModelSpecTest, RefusesEpidemicReplicationCountsAboveTheBound) {
  // stochastic-epidemic allocates one row of per-class averages per
  // replication before the first one runs: 10^8 replications of the
  // default spec would ask for about 8 GB.
  ScenarioSpec s;
  s.epidemic_replications = 100'000'000;
  EXPECT_THROW(s.validate(), ConfigError);
  s.epidemic_replications = ScenarioSpec::kMaxEpidemicReplications + 1;
  EXPECT_THROW(s.validate(), ConfigError);
  s.epidemic_replications = ScenarioSpec::kMaxEpidemicReplications;
  EXPECT_NO_THROW(s.validate());
}

TEST(ModelSpecTest, SimConfigFromSpecMapsEveryRunKnob) {
  ScenarioSpec spec;
  spec.num_files = 4;
  spec.correlation = 0.7;
  spec.visit_rate = 1.3;
  spec.fluid.eta = 0.6;
  spec.scheme = fluid::SchemeKind::kMfcd;
  spec.rho = 0.2;
  spec.cheater_fraction = 0.1;
  spec.abort_rate = 0.02;
  spec.adapt.enabled = true;
  spec.horizon = 2500.0;
  spec.warmup = 750.0;
  spec.seed = 99;
  spec.faults.seed_failures.push_back({/*start=*/100.0, /*duration=*/50.0});

  const sim::SimConfig config = sim_config_from_spec(spec);
  EXPECT_EQ(config.num_files, spec.num_files);
  EXPECT_EQ(config.correlation, spec.correlation);
  EXPECT_EQ(config.visit_rate, spec.visit_rate);
  EXPECT_EQ(config.fluid.eta, spec.fluid.eta);
  EXPECT_EQ(config.scheme, spec.scheme);
  EXPECT_EQ(config.rho, spec.rho);
  EXPECT_EQ(config.cheater_fraction, spec.cheater_fraction);
  EXPECT_EQ(config.abort_rate, spec.abort_rate);
  EXPECT_TRUE(config.adapt.enabled);
  EXPECT_EQ(config.horizon, spec.horizon);
  EXPECT_EQ(config.warmup, spec.warmup);
  EXPECT_EQ(config.seed, spec.seed);
  ASSERT_EQ(config.faults.seed_failures.size(), 1u);
  EXPECT_EQ(config.faults.seed_failures[0].start, 100.0);
}

TEST(ModelSchemeStringTest, RoundTripsEverySchemeName) {
  for (const fluid::SchemeKind scheme :
       {fluid::SchemeKind::kMtcd, fluid::SchemeKind::kMtsd,
        fluid::SchemeKind::kMfcd, fluid::SchemeKind::kCmfsd}) {
    EXPECT_EQ(fluid::scheme_from_string(fluid::to_string(scheme)), scheme);
  }
}

TEST(ModelSchemeStringTest, IsCaseInsensitive) {
  EXPECT_EQ(fluid::scheme_from_string("mtcd"), fluid::SchemeKind::kMtcd);
  EXPECT_EQ(fluid::scheme_from_string("Mtsd"), fluid::SchemeKind::kMtsd);
  EXPECT_EQ(fluid::scheme_from_string("mFcD"), fluid::SchemeKind::kMfcd);
  EXPECT_EQ(fluid::scheme_from_string("cmfsd"), fluid::SchemeKind::kCmfsd);
}

TEST(ModelSchemeStringTest, RejectsUnknownNames) {
  EXPECT_THROW((void)fluid::scheme_from_string("BITTORRENT"), ConfigError);
  EXPECT_THROW((void)fluid::scheme_from_string(""), ConfigError);
  EXPECT_THROW((void)fluid::scheme_from_string("MTCD "), ConfigError);
}

}  // namespace
}  // namespace btmf::model
