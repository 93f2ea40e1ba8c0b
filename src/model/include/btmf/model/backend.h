// The backend seam: one interface every evaluator implements.
//
// A Backend turns a ScenarioSpec into an Outcome. Four are registered:
//
//   fluid-equilibrium  the paper's steady-state models (closed forms where
//                      they exist, a scalar pool-rate root for CMFSD)
//   fluid-transient    the same ODEs integrated to the spec's horizon and
//                      read out with Little's law — plus the trajectory
//   kernel-sim         the policy-driven discrete-event kernel (replication
//                      -aware: Adapt, cheaters, faults, abort clocks)
//   chunk-sim          the chunk-level protocol substrate (single torrent,
//                      measures the emergent sharing efficiency eta)
//
// Capabilities are *declared*, not discovered by crashing: evaluate()
// returns a typed kUnsupported outcome for specs outside a backend's
// domain (e.g. CMFSD at p = 0 anywhere, a fault plan on a fluid backend),
// so cross-backend harnesses can walk the full scheme x backend matrix
// with no silent skips. See docs/BACKENDS.md for the capability table and
// the how-to-add-a-backend walkthrough.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "btmf/model/outcome.h"
#include "btmf/model/spec.h"

namespace btmf::model {

struct BackendCapabilities {
  /// Finite-sample Monte-Carlo noise: conformance comparisons against a
  /// fluid backend need a statistical tolerance, not an analytic one.
  bool monte_carlo = false;
  bool trajectory = false;         ///< Outcome::trajectory attached
  bool sim_counters = false;       ///< Outcome::sim attached

  /// Schemes the backend evaluates, indexed by fluid::SchemeKind.
  std::array<bool, 4> schemes{true, true, true, true};
  /// 0 = unlimited; chunk-sim sizes its piece bitmaps by file index so it
  /// declares the bitmask width (32) here.
  unsigned max_files = 0;
  /// Non-default ScenarioSpec::chunk_policy honoured (only the chunk-level
  /// substrate models pieces; every other backend refuses a spec that
  /// asks for a specific piece-selection policy rather than silently
  /// ignoring it).
  bool piece_policies = false;
  /// p = 0 acceptable (only the closed-form backend can take the limit
  /// analytically; Little's-law and sampling readouts need arrivals).
  bool zero_correlation = false;

  bool rho_per_class = false;      ///< ScenarioSpec::rho_per_class honoured
  bool adapt = false;              ///< AdaptConfig honoured
  bool cheaters = false;           ///< cheater_fraction honoured
  bool aborts = false;             ///< abort_rate honoured
  bool faults = false;             ///< FaultPlan honoured

  /// Non-homogeneous ArrivalProcess (diurnal, flash crowd) honoured: the
  /// backend integrates or samples lambda(t) rather than assuming a
  /// stationary rate. A homogeneous spec always passes this gate.
  bool arrivals_time_varying = false;
  /// Heterogeneous ScenarioSpec::bandwidth_classes honoured (per-class
  /// upload scales and download caps). An empty class list always passes.
  bool bandwidth_classes = false;

  [[nodiscard]] bool supports_scheme(fluid::SchemeKind scheme) const {
    return schemes[static_cast<std::size_t>(scheme)];
  }
};

class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual BackendCapabilities capabilities() const = 0;

  /// Why this backend cannot evaluate `spec` (derived from the capability
  /// declaration plus the universal rules, e.g. CMFSD needs p > 0), or
  /// nullopt when it can. Does not validate field ranges — that is
  /// ScenarioSpec::validate()'s job. Virtual so a backend can refuse
  /// *combinations* its scalar capability bits cannot express (kernel-sim
  /// supports bandwidth classes and CMFSD, but not together); overrides
  /// must call the base implementation and only ever add reasons.
  [[nodiscard]] virtual std::optional<std::string> unsupported_reason(
      const ScenarioSpec& spec) const;

  /// Evaluates `spec`, never throwing for model-level problems: a
  /// malformed spec or an evaluation failure comes back as kFailed with
  /// the exception message, an out-of-capability spec as kUnsupported.
  [[nodiscard]] Outcome evaluate(const ScenarioSpec& spec) const;

  /// As evaluate() but throwing: btmf::ConfigError for malformed or
  /// unsupported specs, the original btmf::Error (SolverError, ...) for
  /// evaluation failures.
  [[nodiscard]] Outcome evaluate_or_throw(const ScenarioSpec& spec) const;

 protected:
  /// The actual evaluation; called only on validated, supported specs.
  /// May throw btmf::Error.
  [[nodiscard]] virtual Outcome do_evaluate(const ScenarioSpec& spec) const
      = 0;
};

/// All registered backends, in the order listed above. Pointers are to
/// process-lifetime singletons.
const std::vector<const Backend*>& backend_registry();

/// Lookup by name; nullptr when unknown.
const Backend* find_backend(std::string_view name);

/// Lookup by name; throws btmf::ConfigError naming the known backends.
const Backend& require_backend(std::string_view name);

}  // namespace btmf::model
