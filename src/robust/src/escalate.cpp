#include "btmf/robust/escalate.h"

#include <algorithm>

namespace btmf::robust {

model::ScenarioSpec escalate_spec(const model::ScenarioSpec& spec,
                                  unsigned attempt) {
  model::ScenarioSpec hardened = spec;
  for (unsigned rung = 0; rung < attempt; ++rung) {
    math::EquilibriumOptions& solver = hardened.solver;
    solver.ode.rtol = std::max(solver.ode.rtol / 100.0, 1e-13);
    solver.ode.atol = std::max(solver.ode.atol / 100.0, 1e-14);
    solver.ode.max_steps += solver.ode.max_steps / 2;
  }
  return hardened;
}

}  // namespace btmf::robust
