// End-to-end telemetry: attaching obs sinks to the simulators and
// solvers must never perturb results, and every sink must come back
// filled — counters matching SimResult, series covering the horizon,
// traces that parse.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "btmf/math/equilibrium.h"
#include "btmf/obs/sink.h"
#include "btmf/sim/chunk_sim.h"
#include "btmf/sim/simulator.h"
#include "json_check.h"

namespace btmf::sim {
namespace {

SimConfig base_config() {
  SimConfig c;
  c.scheme = fluid::SchemeKind::kCmfsd;
  c.rho = 0.3;
  c.num_files = 4;
  c.correlation = 0.5;
  c.visit_rate = 2.0;
  c.horizon = 600.0;
  c.warmup = 150.0;
  c.seed = 77;
  return c;
}

TEST(ObsSim, InertByDefault) {
  // Attaching every sink must leave the simulation bit-identical:
  // observation draws no randomness and changes no event times.
  const SimConfig plain = base_config();
  const SimResult a = run_simulation(plain);

  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder recorder;
  obs::TraceWriter trace;
  SimConfig observed = base_config();
  observed.obs.metrics = &metrics;
  observed.obs.recorder = &recorder;
  observed.obs.trace = &trace;
  const SimResult b = run_simulation(observed);

  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.total_users, b.total_users);
  EXPECT_EQ(a.avg_online_per_file, b.avg_online_per_file);
  EXPECT_EQ(a.avg_download_per_file, b.avg_download_per_file);
  EXPECT_EQ(a.peak_live_peers, b.peak_live_peers);
  EXPECT_EQ(a.rho_trajectory_time, b.rho_trajectory_time);
  EXPECT_EQ(a.rho_trajectory_mean, b.rho_trajectory_mean);
  EXPECT_EQ(a.population_time, b.population_time);
  EXPECT_EQ(a.downloaders_trajectory, b.downloaders_trajectory);
  EXPECT_EQ(a.seeds_trajectory, b.seeds_trajectory);
}

TEST(ObsSim, PopulationTrajectoriesCoverTheHorizon) {
  const SimConfig c = base_config();
  const SimResult r = run_simulation(c);
  ASSERT_FALSE(r.population_time.empty());
  EXPECT_EQ(r.population_time.front(), 0.0);
  EXPECT_EQ(r.population_time.back(), c.horizon);
  ASSERT_EQ(r.downloaders_trajectory.size(), r.classes.size());
  ASSERT_EQ(r.seeds_trajectory.size(), r.classes.size());
  for (std::size_t k = 0; k < r.classes.size(); ++k) {
    EXPECT_EQ(r.downloaders_trajectory[k].size(), r.population_time.size());
    EXPECT_EQ(r.seeds_trajectory[k].size(), r.population_time.size());
  }
}

TEST(ObsSim, SampleDtSetsTheCadence) {
  SimConfig c = base_config();
  c.obs.sample_dt = 50.0;  // 0, 50, ..., 600: exactly 13 samples
  const SimResult r = run_simulation(c);
  ASSERT_EQ(r.population_time.size(), 13u);
  EXPECT_EQ(r.population_time[1], 50.0);
  EXPECT_EQ(r.population_time.back(), c.horizon);
}

TEST(ObsSim, MetricsCountersMatchTheResult) {
  obs::MetricsRegistry metrics;
  SimConfig c = base_config();
  c.obs.metrics = &metrics;
  const SimResult r = run_simulation(c);
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("sim.events"), r.events_processed);
  EXPECT_EQ(snap.counters.at("sim.arrivals"), r.total_arrivals);
  EXPECT_EQ(snap.counters.at("sim.users_completed"), r.total_users);
  EXPECT_EQ(snap.counters.at("sim.users_censored"), r.censored_users);
  EXPECT_EQ(snap.counters.at("sim.rate_epochs"), r.rate_epochs);
  EXPECT_EQ(snap.gauges.at("sim.peak_live_peers"),
            static_cast<double>(r.peak_live_peers));
  // Every retired user lands in the online-time histogram.
  EXPECT_EQ(snap.histograms.at("sim.user_online_per_file").count,
            r.total_users);
}

TEST(ObsSim, RecorderReceivesSeriesSpanningTheRun) {
  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder recorder;
  SimConfig c = base_config();
  c.adapt.enabled = true;
  c.obs.metrics = &metrics;
  c.obs.recorder = &recorder;
  const SimResult r = run_simulation(c);
  const auto all = recorder.all();
  for (const std::string name :
       {"sim.live_peers", "sim.downloaders.c1", "sim.seeds.c1",
        "sim.readmission_queue", "adapt.rho_mean"}) {
    ASSERT_EQ(all.count(name), 1u) << name;
  }
  const obs::SeriesData& live = all.at("sim.live_peers");
  ASSERT_FALSE(live.t.empty());
  EXPECT_EQ(live.t.front(), 0.0);
  EXPECT_EQ(live.t.back(), c.horizon);
  // The exported series mirrors SimResult's trajectory view exactly.
  EXPECT_EQ(all.at("sim.downloaders.c1").v, r.downloaders_trajectory[0]);
  EXPECT_EQ(all.at("adapt.rho_mean").v, r.rho_trajectory_mean);
}

TEST(ObsSim, KernelTraceParsesWithDispatchSpans) {
  obs::TraceWriter trace("obs_sim_test");
  SimConfig c = base_config();
  c.obs.trace = &trace;
  c.obs.trace_batch = 256;
  const SimResult r = run_simulation(c);
  EXPECT_GT(trace.event_count(), 0u);
  const std::string json = trace.to_json();
  EXPECT_TRUE(obs::test::json_parses(json));
  // One span per trace_batch dispatch rounds, plus the final partial
  // one: the sink's work per event stays a counter bump.
  std::size_t spans = 0;
  for (std::size_t at = json.find("\"kernel.dispatch\"");
       at != std::string::npos;
       at = json.find("\"kernel.dispatch\"", at + 1)) {
    ++spans;
  }
  const std::size_t batch = c.obs.trace_batch;
  EXPECT_GT(spans, 0u);
  EXPECT_LE(spans, (r.events_processed + batch - 1) / batch + 1);
}

TEST(ObsSim, ChunkSimFillsItsSinks) {
  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder recorder;
  ChunkSimConfig c;
  c.horizon = 400.0;
  c.warmup = 100.0;
  c.obs.metrics = &metrics;
  c.obs.recorder = &recorder;
  const ChunkSimResult plain_result = [] {
    ChunkSimConfig plain;
    plain.horizon = 400.0;
    plain.warmup = 100.0;
    return run_chunk_sim(plain);
  }();
  const ChunkSimResult r = run_chunk_sim(c);
  // Observation is inert here too.
  EXPECT_EQ(r.completed_peers, plain_result.completed_peers);
  EXPECT_EQ(r.emergent_eta, plain_result.emergent_eta);
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_GT(snap.counters.at("chunk.slots"), 0u);
  const auto all = recorder.all();
  ASSERT_EQ(all.count("chunk.availability"), 1u);
  EXPECT_FALSE(all.at("chunk.downloaders").t.empty());
}

TEST(ObsSim, SolverSpansEmitted) {
  obs::TraceWriter trace("solver");
  math::EquilibriumOptions options;
  options.ode.trace = &trace;
  const math::OdeRhs rhs = [](double, std::span<const double> y,
                              std::span<double> f) {
    f[0] = 1.0 - y[0];  // fixed point at y = 1
  };
  const math::EquilibriumResult eq =
      math::find_equilibrium(rhs, {4.0}, options);
  EXPECT_NEAR(eq.y[0], 1.0, 1e-6);
  const std::string json = trace.to_json();
  EXPECT_TRUE(obs::test::json_parses(json));
  EXPECT_NE(json.find("\"equilibrium.rung\""), std::string::npos);
  EXPECT_NE(json.find("\"equilibrium.newton\""), std::string::npos);
  EXPECT_NE(json.find("\"ode.integrate\""), std::string::npos);
}

}  // namespace
}  // namespace btmf::sim
