#include "btmf/robust/escalate.h"

#include <gtest/gtest.h>

#include "btmf/model/spec.h"

namespace btmf::robust {
namespace {

TEST(RobustEscalateTest, AttemptZeroIsTheSpecUnchanged) {
  model::ScenarioSpec spec;
  const model::ScenarioSpec out = escalate_spec(spec, 0);
  EXPECT_EQ(out.fingerprint(), spec.fingerprint());
}

TEST(RobustEscalateTest, EachRungTightensTheSolver) {
  model::ScenarioSpec spec;
  const model::ScenarioSpec r1 = escalate_spec(spec, 1);
  EXPECT_LT(r1.solver.rtol, spec.solver.rtol);
  EXPECT_LT(r1.solver.atol, spec.solver.atol);
  EXPECT_GT(r1.solver.max_steps, spec.solver.max_steps);
  const model::ScenarioSpec r2 = escalate_spec(spec, 2);
  EXPECT_LE(r2.solver.rtol, r1.solver.rtol);
}

TEST(RobustEscalateTest, TolerancesFloorInsteadOfUnderflowing) {
  model::ScenarioSpec spec;
  const model::ScenarioSpec deep = escalate_spec(spec, 20);
  EXPECT_GE(deep.solver.rtol, 1e-13);
  EXPECT_GE(deep.solver.atol, 1e-14);
}

TEST(RobustEscalateTest, RungIsAPureFunctionOfSpecAndAttempt) {
  model::ScenarioSpec spec;
  spec.correlation = 0.7;
  const model::ScenarioSpec a = escalate_spec(spec, 3);
  const model::ScenarioSpec b = escalate_spec(spec, 3);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.solver.rtol, b.solver.rtol);
  // Escalation only touches solver knobs, never the scenario itself.
  EXPECT_EQ(a.correlation, spec.correlation);
  EXPECT_EQ(a.num_files, spec.num_files);
}

}  // namespace
}  // namespace btmf::robust
