// The Backend seam: registry contents, typed unsupported/failed outcomes
// (no backend may crash on an out-of-domain spec), capability gating,
// per-seed determinism of the stochastic backends, and the spec's solver
// trace hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "btmf/model/backend.h"
#include "btmf/obs/trace.h"
#include "btmf/util/error.h"

namespace btmf::model {
namespace {

constexpr const char* kAllBackends[] = {"fluid-equilibrium", "fluid-transient",
                                        "kernel-sim", "chunk-sim",
                                        "stochastic-epidemic"};

// Small, fast spec the stochastic backends can run in milliseconds.
ScenarioSpec small_spec(fluid::SchemeKind scheme, double p) {
  ScenarioSpec spec;
  spec.num_files = 3;
  spec.correlation = p;
  spec.scheme = scheme;
  spec.horizon = 800.0;
  spec.warmup = 200.0;
  return spec;
}

TEST(ModelBackendTest, RegistryListsTheFiveBackendsInOrder) {
  const auto& registry = backend_registry();
  ASSERT_EQ(registry.size(), 5u);
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(registry[i]->name(), kAllBackends[i]);
  }
}

TEST(ModelBackendTest, FindBackendReturnsNullForUnknownNames) {
  for (const char* name : kAllBackends) {
    EXPECT_NE(find_backend(name), nullptr) << name;
  }
  EXPECT_EQ(find_backend("fluid"), nullptr);
  EXPECT_EQ(find_backend(""), nullptr);
}

TEST(ModelBackendTest, RequireBackendThrowsNamingTheKnownBackends) {
  try {
    (void)require_backend("no-such-backend");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos);
    for (const char* name : kAllBackends) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

// The universal rule: CMFSD at p = 0 is a typed kUnsupported from EVERY
// backend that evaluates CMFSD at all — same message everywhere, never a
// crash, never a throw from evaluate(). Backends whose scheme bits
// exclude CMFSD outright (stochastic-epidemic) refuse with their own
// typed reason instead.
TEST(ModelBackendTest, CmfsdAtZeroCorrelationIsUnsupportedEverywhere) {
  ScenarioSpec spec = small_spec(fluid::SchemeKind::kCmfsd, 0.0);
  spec.num_files = 1;  // keep chunk-sim's K = 1 gate out of the way
  for (const Backend* backend : backend_registry()) {
    const Outcome outcome = backend->evaluate(spec);
    EXPECT_EQ(outcome.status, OutcomeStatus::kUnsupported) << backend->name();
    const std::size_t scheme_bit =
        static_cast<std::size_t>(fluid::SchemeKind::kCmfsd);
    if (backend->capabilities().schemes[scheme_bit]) {
      EXPECT_EQ(outcome.error,
                "CMFSD needs p > 0 (no peer requests any file at p=0)")
          << backend->name();
    } else {
      EXPECT_NE(outcome.error.find("CMFSD"), std::string::npos)
          << backend->name();
    }
    EXPECT_THROW((void)backend->evaluate_or_throw(spec), ConfigError)
        << backend->name();
  }
}

TEST(ModelBackendTest, OnlyTheClosedFormsTakeTheZeroCorrelationLimit) {
  const ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd, 0.0);
  for (const Backend* backend : backend_registry()) {
    if (backend->capabilities().max_files != 0 &&
        spec.num_files > backend->capabilities().max_files) {
      continue;  // chunk-sim: gated on K, checked separately below
    }
    const Outcome outcome = backend->evaluate(spec);
    if (backend->capabilities().zero_correlation) {
      EXPECT_EQ(outcome.status, OutcomeStatus::kOk) << backend->name();
    } else {
      EXPECT_EQ(outcome.status, OutcomeStatus::kUnsupported) << backend->name();
      EXPECT_FALSE(outcome.error.empty()) << backend->name();
    }
  }
  EXPECT_TRUE(
      require_backend("fluid-equilibrium").evaluate(spec).ok());
}

TEST(ModelBackendTest, CapabilityGatesRefuseWhatABackendCannotModel) {
  // Fault plans only replay on the event kernel.
  {
    ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd, 0.5);
    spec.faults.seed_failures.push_back({/*start=*/100.0, /*duration=*/50.0});
    for (const char* name : {"fluid-equilibrium", "fluid-transient"}) {
      const Outcome outcome = require_backend(name).evaluate(spec);
      EXPECT_EQ(outcome.status, OutcomeStatus::kUnsupported) << name;
      EXPECT_NE(outcome.error.find("fault"), std::string::npos) << name;
    }
    EXPECT_FALSE(
        require_backend("kernel-sim").unsupported_reason(spec).has_value());
  }
  // The Adapt controller and cheaters are kernel-sim-only.
  {
    ScenarioSpec spec = small_spec(fluid::SchemeKind::kCmfsd, 0.9);
    spec.adapt.enabled = true;
    EXPECT_EQ(require_backend("fluid-equilibrium").evaluate(spec).status,
              OutcomeStatus::kUnsupported);
    spec.adapt.enabled = false;
    spec.cheater_fraction = 0.3;
    EXPECT_EQ(require_backend("fluid-transient").evaluate(spec).status,
              OutcomeStatus::kUnsupported);
    EXPECT_FALSE(
        require_backend("kernel-sim").unsupported_reason(spec).has_value());
  }
  // Per-class rho is a fluid-model construct the kernel does not model.
  {
    ScenarioSpec spec = small_spec(fluid::SchemeKind::kCmfsd, 0.9);
    spec.rho_per_class.assign(spec.num_files, 0.5);
    EXPECT_EQ(require_backend("kernel-sim").evaluate(spec).status,
              OutcomeStatus::kUnsupported);
    EXPECT_FALSE(require_backend("fluid-equilibrium")
                     .unsupported_reason(spec)
                     .has_value());
  }
  // chunk-sim runs true multi-file torrents now, up to its piece-bitmap
  // width of 32 files.
  {
    ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd, 1.0);
    EXPECT_FALSE(
        require_backend("chunk-sim").unsupported_reason(spec).has_value());
    spec.num_files = 33;
    const Outcome outcome = require_backend("chunk-sim").evaluate(spec);
    EXPECT_EQ(outcome.status, OutcomeStatus::kUnsupported);
    EXPECT_NE(outcome.error.find("at most 32"), std::string::npos);
  }
  // Piece-selection policies exist only at the chunk level; every other
  // backend refuses rather than silently ignoring the knob.
  {
    ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd, 0.5);
    spec.chunk_policy = sim::PiecePolicy::kModeSuppression;
    for (const char* name : {"fluid-equilibrium", "fluid-transient",
                             "kernel-sim"}) {
      const Outcome outcome = require_backend(name).evaluate(spec);
      EXPECT_EQ(outcome.status, OutcomeStatus::kUnsupported) << name;
      EXPECT_NE(outcome.error.find("piece"), std::string::npos) << name;
    }
    EXPECT_FALSE(
        require_backend("chunk-sim").unsupported_reason(spec).has_value());
  }
}

TEST(ModelBackendTest, MalformedSpecComesBackAsTypedFailure) {
  ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd, 0.5);
  spec.correlation = 1.5;
  for (const Backend* backend : backend_registry()) {
    const Outcome outcome = backend->evaluate(spec);
    EXPECT_EQ(outcome.status, OutcomeStatus::kFailed) << backend->name();
    EXPECT_FALSE(outcome.error.empty()) << backend->name();
    EXPECT_THROW((void)backend->evaluate_or_throw(spec), ConfigError)
        << backend->name();
  }
}

TEST(ModelBackendTest, OutcomeStatusToStringIsStable) {
  EXPECT_STREQ(to_string(OutcomeStatus::kOk), "ok");
  EXPECT_STREQ(to_string(OutcomeStatus::kUnsupported), "unsupported");
  EXPECT_STREQ(to_string(OutcomeStatus::kFailed), "failed");
}

TEST(ModelBackendTest, StochasticBackendsAreDeterministicPerSeed) {
  const Backend& kernel = require_backend("kernel-sim");
  ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd, 0.5);
  spec.seed = 7;
  const Outcome first = kernel.evaluate_or_throw(spec);
  const Outcome second = kernel.evaluate_or_throw(spec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.avg_online_per_file, second.avg_online_per_file);
  EXPECT_EQ(first.avg_download_per_file, second.avg_download_per_file);
  ASSERT_TRUE(first.sim.has_value());
  ASSERT_TRUE(second.sim.has_value());
  for (std::size_t i = 0; i < first.sim->classes.size(); ++i) {
    EXPECT_EQ(first.sim->classes[i].completed_users,
              second.sim->classes[i].completed_users);
  }

  spec.seed = 8;
  const Outcome other = kernel.evaluate_or_throw(spec);
  EXPECT_NE(first.avg_online_per_file, other.avg_online_per_file);
}

// spec.solver.trace reaches both of fluid-transient's integrators: each
// run of one integrator leaves one ode.integrate span, the runs' [t0, t1]
// tile [0, horizon] without a gap, and tracing moves no number.
TEST(ModelBackendTest, FluidTransientTracesItsIntegratorsInertly) {
  const Backend& transient = require_backend("fluid-transient");
  ScenarioSpec spec;
  spec.correlation = 0.5;
  spec.rho = 0.5;
  spec.horizon = 40000.0;  // long enough for the stiff tail to go implicit
  const Outcome plain = transient.evaluate_or_throw(spec);

  obs::TraceWriter trace("solver");
  spec.solver.trace = &trace;
  const Outcome traced = transient.evaluate_or_throw(spec);
  const std::string json = trace.to_json();
  const auto number = [&json](std::size_t from, const std::string& key) {
    const std::size_t at = json.find("\"" + key + "\": ", from);
    EXPECT_NE(at, std::string::npos) << key;
    return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
  };
  struct Run {
    double t0;
    double t1;
    std::string method;
  };
  std::vector<Run> runs;
  double accepted = 0.0;
  const std::string tag = "\"ode.integrate\"";
  const std::string method_key = "\"method\": \"";
  for (std::size_t at = json.find(tag); at != std::string::npos;
       at = json.find(tag, at + tag.size())) {
    const std::size_t method = json.find(method_key, at) + method_key.size();
    runs.push_back({number(at, "t0"), number(at, "t1"),
                    json.substr(method, json.find('"', method) - method)});
    accepted += number(at, "accepted");
  }
  EXPECT_GT(accepted, 0.0);
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.t0 < b.t0; });
  ASSERT_FALSE(runs.empty());
  EXPECT_EQ(runs.front().t0, 0.0);
  EXPECT_EQ(runs.back().t1, spec.horizon);
  bool dopri5 = false;
  bool rodas3 = false;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (r > 0) {
      EXPECT_EQ(runs[r].t0, runs[r - 1].t1) << r;
    }
    EXPECT_LT(runs[r].t0, runs[r].t1) << r;
    dopri5 = dopri5 || runs[r].method == "dopri5";
    rodas3 = rodas3 || runs[r].method == "rodas3";
  }
  EXPECT_TRUE(dopri5);
  EXPECT_TRUE(rodas3);

  EXPECT_EQ(traced.avg_online_per_file, plain.avg_online_per_file);
  EXPECT_EQ(traced.avg_download_per_file, plain.avg_download_per_file);
  EXPECT_EQ(traced.per_class.online_time, plain.per_class.online_time);
  EXPECT_EQ(traced.per_class.download_time, plain.per_class.download_time);
  ASSERT_TRUE(traced.trajectory.has_value());
  ASSERT_TRUE(plain.trajectory.has_value());
  EXPECT_EQ(traced.trajectory->downloaders, plain.trajectory->downloaders);
  EXPECT_EQ(traced.trajectory->seeds, plain.trajectory->seeds);
}

TEST(ModelBackendTest, AttachmentsMatchDeclaredCapabilities) {
  for (const Backend* backend : backend_registry()) {
    const BackendCapabilities caps = backend->capabilities();
    ScenarioSpec spec = small_spec(fluid::SchemeKind::kMtcd, 0.8);
    if (caps.max_files != 0) spec.num_files = caps.max_files;
    const Outcome outcome = backend->evaluate(spec);
    ASSERT_TRUE(outcome.ok()) << backend->name() << ": " << outcome.error;
    EXPECT_EQ(outcome.trajectory.has_value(), caps.trajectory)
        << backend->name();
    EXPECT_EQ(outcome.sim.has_value(), caps.sim_counters) << backend->name();
    EXPECT_EQ(outcome.chunk.has_value(),
              std::string(backend->name()) == "chunk-sim")
        << backend->name();
    if (outcome.trajectory) {
      EXPECT_FALSE(outcome.trajectory->time.empty()) << backend->name();
      EXPECT_EQ(outcome.trajectory->time.size(),
                outcome.trajectory->downloaders.size())
          << backend->name();
      EXPECT_EQ(outcome.trajectory->time.size(),
                outcome.trajectory->seeds.size())
          << backend->name();
    }
  }
}

}  // namespace
}  // namespace btmf::model
