// Retry escalation: make later attempts *try harder*, not just again.
//
// A deterministic solver that failed once will fail identically on a
// blind retry — retrying only helps transient failures (crashes,
// timeouts from machine load). For solver failures the useful lever is
// the solver configuration itself, so the supervisor exposes the attempt
// number and this hook maps it onto the ScenarioSpec: each retry climbs
// one rung of a ladder that tightens the ODE tolerances and raises the
// step budget in spec.solver, which fluid-transient integrates with.
//
// Determinism note: escalated specs produce *different* (better) numbers
// than the base spec would. The sweep engine therefore only uses this
// hook through SweepSpec::compute_retry, which the caller opts into, and
// the cache stores whatever attempt finally succeeded — identically on
// every rerun, because attempt progression is itself deterministic.
#pragma once

#include "btmf/model/spec.h"

namespace btmf::robust {

/// Returns `spec` hardened for retry `attempt` (0 = unchanged). Each rung
/// divides the ODE rtol/atol by 100 (floored at 1e-13/1e-14 — below that
/// RK45 step sizes underflow in double) and grants +50% ODE max_steps.
/// Idempotent in the sense that rung r is a pure function of (spec, r).
[[nodiscard]] model::ScenarioSpec escalate_spec(
    const model::ScenarioSpec& spec, unsigned attempt);

}  // namespace btmf::robust
