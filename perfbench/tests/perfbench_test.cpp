// Tests for the arithmetic perfbench reports through and for its output
// checks: each check must accept a correct result and reject the same
// result with one corrupted value.
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "btmf/model/backend.h"
#include "checks.h"
#include "report.h"
#include "stats.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {
namespace {

using btmf::fluid::SchemeKind;
using btmf::model::Outcome;
using btmf::model::ScenarioSpec;

// ---- arithmetic ------------------------------------------------------------

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(PercentileTest, P99NeedsTheTail) {
  std::vector<double> v(1000, 1.0);
  for (std::size_t i = 990; i < 1000; ++i) v[i] = 100.0;
  // Ten samples lie beyond the 99th percentile's rank: it sits on the
  // boundary between the bulk and the tail.
  EXPECT_NEAR(percentile(v, 0.99), 1.0 + 0.01 * 99.0, 1e-9);
  EXPECT_DOUBLE_EQ(percentile(v, 0.995), 100.0);
}

TEST(PercentileTest, EmptySampleIsZero) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  // Children overlap ([1,3] and [2,5]) and one sticks out of the span.
  const std::vector<Interval> children{{1.0, 3.0}, {2.0, 5.0}, {8.0, 12.0}};
  EXPECT_DOUBLE_EQ(covered_length(children, {0.0, 10.0}), 6.0);
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, children), 4.0);
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, {{-5.0, 20.0}}), 0.0);
}

TEST(ShareTest, SweepSelfBusyAndImbalance) {
  // 2 workers for 2 s offer 4 worker-seconds; points used 3 of them.
  EXPECT_DOUBLE_EQ(sweep_self_per_point(2.0, 2, 3.0, 100), 0.01);
  EXPECT_DOUBLE_EQ(busy_share(3.0, 2, 2.0), 0.75);
  EXPECT_EQ(sweep_self_per_point(2.0, 2, 3.0, 0), 0.0);
  EXPECT_EQ(share(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(share(1.0, 4.0), 0.25);
  EXPECT_DOUBLE_EQ(imbalance({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(imbalance({2.0, 1.0, 1.0, 0.0}), 2.0);
  EXPECT_EQ(imbalance({0.0, 0.0}), 0.0);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(7, 3);
  Rng b(7, 3);
  Rng c(8, 3);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = a.next();
    EXPECT_EQ(x, b.next());
    EXPECT_NE(x, c.next());
  }
  Rng u(1, 1);
  for (int i = 0; i < 100; ++i) {
    const double v = u.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

// ---- tracing ---------------------------------------------------------------

TEST(TracerTest, NestedSpansLinkToTheirParent) {
  Tracer tracer(true);
  std::uint64_t outer_id = 0;
  {
    auto outer = tracer.span("outer", 7);
    outer_id = outer.id();
    auto inner = tracer.span("inner", 7);
  }
  auto linked = tracer.span("linked", 9, outer_id);
  linked.end();
  const std::vector<SpanRecord> inner = tracer.named("inner");
  const std::vector<SpanRecord> outer = tracer.named("outer");
  ASSERT_EQ(inner.size(), 1u);
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(inner[0].parent, outer_id);
  EXPECT_EQ(outer[0].parent, 0u);
  EXPECT_EQ(inner[0].req, 7u);
  EXPECT_EQ(tracer.named("linked")[0].parent, outer_id);
  EXPECT_LE(outer[0].start_s, inner[0].start_s);
  EXPECT_GE(outer[0].end_s, inner[0].end_s);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { auto span = tracer.span("x", 1); }
  EXPECT_TRUE(tracer.records().empty());
}

// ---- output checks ---------------------------------------------------------

Outcome evaluate(const std::string& backend, const ScenarioSpec& spec) {
  return btmf::model::require_backend(backend).evaluate(spec);
}

ScenarioSpec cmfsd(double rho) {
  ScenarioSpec s;
  s.scheme = SchemeKind::kCmfsd;
  s.correlation = 0.6;
  s.rho = rho;
  return s;
}

TEST(CheckTest, CmfsdAtRhoOneEqualsMfcdAndRejectsCorruption) {
  ScenarioSpec mfcd = cmfsd(1.0);
  mfcd.scheme = SchemeKind::kMfcd;
  const double want = evaluate("fluid-equilibrium", mfcd).avg_online_per_file;
  const double got =
      evaluate("fluid-equilibrium", cmfsd(1.0)).avg_online_per_file;
  EXPECT_EQ(check_relative("identity", got, want, kIdentityTol), "");
  EXPECT_NE(check_relative("identity", got * (1 + 1e-8), want, kIdentityTol),
            "");
}

TEST(CheckTest, TransientMatchesEquilibriumAndRejectsCorruption) {
  const double eq =
      evaluate("fluid-equilibrium", cmfsd(0.4)).avg_online_per_file;
  const double tr = evaluate("fluid-transient", cmfsd(0.4)).avg_online_per_file;
  EXPECT_EQ(check_relative("transient", tr, eq, kTransientTol), "");
  EXPECT_NE(check_relative("transient", tr * (1 + 1e-5), eq, kTransientTol),
            "");
  EXPECT_NE(check_relative("transient",
                           std::numeric_limits<double>::quiet_NaN(), eq,
                           kTransientTol),
            "");
}

btmf::sweep::PointOutcome sweep_point(double scheme, double online,
                                      double transient) {
  btmf::sweep::PointOutcome o;
  o.point.coords = {{"p", 0.5}, {"rho", 1.0}, {"scheme", scheme}};
  o.result.values = {{"online", online}, {"transient_online", transient}};
  return o;
}

TEST(CheckTest, FluidSweepCheckRejectsEachCorruption) {
  const double x =
      evaluate("fluid-equilibrium", cmfsd(1.0)).avg_online_per_file;
  btmf::sweep::SweepResult good;
  good.points = {sweep_point(2, x, x), sweep_point(3, x, x)};
  CheckLog pass;
  check_fluid_sweep(good, pass);
  EXPECT_EQ(pass.failed(), 0u);

  btmf::sweep::SweepResult identity = good;
  identity.points[1].result.values["online"] = x * (1 + 1e-8);
  identity.points[1].result.values["transient_online"] = x * (1 + 1e-8);
  btmf::sweep::SweepResult transient = good;
  transient.points[1].result.values["transient_online"] = x * (1 + 1e-5);
  btmf::sweep::SweepResult mfcd_transient = good;  // every scheme is checked
  mfcd_transient.points[0].result.values["transient_online"] = x * (1 + 1e-5);
  btmf::sweep::SweepResult failed = good;
  failed.points[0].status = btmf::sweep::PointStatus::kFailed;
  failed.failures = 1;
  btmf::sweep::SweepResult no_mfcd = good;
  no_mfcd.points.erase(no_mfcd.points.begin());
  for (const auto* bad :
       {&identity, &transient, &mfcd_transient, &failed, &no_mfcd}) {
    CheckLog log;
    check_fluid_sweep(*bad, log);
    EXPECT_GT(log.failed(), 0u);
  }
}

TEST(CheckTest, ConformanceToleranceRejectsAFarHeadline) {
  EXPECT_EQ(check_relative("kernel vs fluid", 108.0, 100.0, kConformanceTol),
            "");
  EXPECT_NE(check_relative("kernel vs fluid", 120.0, 100.0, kConformanceTol),
            "");
}

TEST(CheckTest, ReevaluationMustBeBitIdentical) {
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtsd;
  spec.visit_rate = 2.0;
  spec.horizon = 1200.0;
  spec.warmup = 300.0;
  const Outcome a = evaluate("kernel-sim", spec);
  const Outcome b = evaluate("kernel-sim", spec);
  ASSERT_TRUE(a.sim.has_value());
  EXPECT_EQ(check_identical("kernel", a, b), "");

  Outcome low_bit = b;
  low_bit.avg_online_per_file =
      std::nextafter(low_bit.avg_online_per_file, 0.0);
  EXPECT_NE(check_identical("kernel", a, low_bit), "");

  Outcome counters = b;
  counters.sim->events_processed += 1;
  EXPECT_NE(check_identical("kernel", a, counters), "");

  Outcome failed = b;
  failed.status = btmf::model::OutcomeStatus::kFailed;
  EXPECT_NE(check_identical("kernel", a, failed), "");
}

TEST(CheckTest, ShardedRunMatchesInlineRun) {
  ScenarioSpec spec;
  spec.scheme = SchemeKind::kMtcd;
  spec.visit_rate = 2.0;
  spec.horizon = 1200.0;
  spec.warmup = 300.0;
  spec.shards = 4;
  spec.kernel_threads = 2;
  const Outcome sharded = evaluate("kernel-sim", spec);
  spec.kernel_threads = 1;
  const Outcome inline_run = evaluate("kernel-sim", spec);
  EXPECT_EQ(check_identical("sharded", sharded, inline_run), "");
  Outcome corrupted = inline_run;
  corrupted.per_class.online_time[0] += 1e-12;
  EXPECT_NE(check_identical("sharded", sharded, corrupted), "");
}

TEST(CheckTest, ReplyValuesMustMatchBitForBit) {
  const std::map<std::string, double> want{{"a", 1.5}, {"b", 2.5}};
  EXPECT_EQ(check_identical_values("reply", want, want), "");
  std::map<std::string, double> changed = want;
  changed["b"] = std::nextafter(2.5, 3.0);
  EXPECT_NE(check_identical_values("reply", changed, want), "");
  EXPECT_NE(check_identical_values("reply", {{"a", 1.5}}, want), "");
  EXPECT_NE(check_identical_values("reply", {{"a", 1.5}, {"c", 2.5}}, want),
            "");
}

TEST(CheckTest, OkRejectsFailuresAndNonPositiveHeadlines) {
  Outcome ok = evaluate("fluid-equilibrium", cmfsd(0.5));
  EXPECT_EQ(check_ok("point", ok), "");
  Outcome nan = ok;
  nan.avg_online_per_file = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(check_ok("point", nan), "");
  Outcome refused = evaluate("stochastic-epidemic", cmfsd(0.5));
  EXPECT_NE(check_ok("point", refused), "");
}

TEST(CheckTest, AccountingAndCounts) {
  EXPECT_EQ(check_accounting("phase", 10, 7, 3), "");
  EXPECT_NE(check_accounting("phase", 10, 7, 2), "");
  EXPECT_EQ(check_count("evaluations", 5, 5), "");
  EXPECT_NE(check_count("evaluations", 6, 5), "");
}

TEST(CheckTest, CheckLogCountsOnlyFailures) {
  CheckLog log;
  EXPECT_TRUE(log.expect(""));
  EXPECT_FALSE(log.expect("bad"));
  EXPECT_EQ(log.failed(), 1u);
  EXPECT_EQ(log.failures()[0], "bad");
}

// ---- the result line -------------------------------------------------------

std::string last_line(const std::string& text) {
  const std::size_t end = text.find_last_not_of('\n');
  const std::size_t begin = text.rfind('\n', end);
  return text.substr(begin == std::string::npos ? 0 : begin + 1,
                     end - (begin == std::string::npos ? 0 : begin + 1) + 1);
}

TEST(ReportTest, FinalLineCarriesEveryMetricOfTheRun) {
  RunOptions options;
  options.workload = "fluid-sweep";
  RunResult result;
  result.attempted = 10;
  result.e2e.evals_per_s = 12.5;
  std::ostringstream untraced;
  report(untraced, options, result);
  const std::string line = last_line(untraced.str());
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0",
                       0),
            0u);
  for (const Metric& m : end_to_end_metrics(result.e2e)) {
    EXPECT_NE(line.find("\"" + m.name + "\": {\"value\": "),
              std::string::npos);
  }

  options.trace = true;
  result.checks.expect("corrupted");
  std::ostringstream traced;
  report(traced, options, result);
  const std::string traced_line = last_line(traced.str());
  EXPECT_EQ(traced_line.rfind("{\"correct\": false", 0), 0u);
  for (const auto& [name, unit] : per_layer_metrics()) {
    EXPECT_NE(traced_line.find("\"" + name + "\": {\"value\": "),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(traced_line.find("evals_per_s"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
