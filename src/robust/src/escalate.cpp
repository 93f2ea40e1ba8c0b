#include "btmf/robust/escalate.h"

#include <algorithm>

namespace btmf::robust {

model::ScenarioSpec escalate_spec(const model::ScenarioSpec& spec,
                                  unsigned attempt) {
  model::ScenarioSpec hardened = spec;
  for (unsigned rung = 0; rung < attempt; ++rung) {
    model::SolverSettings& solver = hardened.solver;
    solver.rtol = std::max(solver.rtol / 100.0, 1e-13);
    solver.atol = std::max(solver.atol / 100.0, 1e-14);
    solver.max_steps += solver.max_steps / 2;
  }
  return hardened;
}

}  // namespace btmf::robust
