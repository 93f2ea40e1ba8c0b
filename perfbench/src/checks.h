// Output checks. Each one states an invariant the numbers must satisfy
// rather than a pinned digest, so an optimisation that changes low-order
// bits of a stochastic or ODE result needs no benchmark edit as long as
// the invariant still holds. Every check returns "" on success and a
// one-line reason on failure; a workload counts a failed check as a
// failed operation and the run as incorrect.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "btmf/model/outcome.h"

namespace perfbench {

/// CMFSD at rho = 1 is MFCD (the paper's identity): 1e-9 relative.
inline constexpr double kIdentityTol = 1e-9;
/// fluid-transient integrated to the horizon lands on the equilibrium.
inline constexpr double kTransientTol = 1e-6;
/// The conformance matrix's tolerance for stochastic backends vs fluid.
inline constexpr double kConformanceTol = 0.15;

/// |got - want| / |want| <= tol (and both finite).
[[nodiscard]] std::string check_relative(const std::string& what, double got,
                                         double want, double tol);

/// Every field that carries an evaluation's answer, as doubles: the
/// headline means, the per-class times and, when attached, the
/// simulator's event counters and the chunk measurements.
[[nodiscard]] std::vector<double> outcome_digest(
    const btmf::model::Outcome& outcome);

/// `a` and `b` agree bit for bit on outcome_digest and both are ok.
[[nodiscard]] std::string check_identical(const std::string& what,
                                          const btmf::model::Outcome& a,
                                          const btmf::model::Outcome& b);

/// Two value maps with the same keys and bit-identical values.
[[nodiscard]] std::string check_identical_values(
    const std::string& what, const std::map<std::string, double>& got,
    const std::map<std::string, double>& want);

/// An outcome that must be ok with a finite, positive headline.
[[nodiscard]] std::string check_ok(const std::string& what,
                                   const btmf::model::Outcome& outcome);

/// sent == succeeded + failed (no request lost or double-counted).
[[nodiscard]] std::string check_accounting(const std::string& phase,
                                           std::size_t sent,
                                           std::size_t succeeded,
                                           std::size_t failed);

/// got == want for a counter that must match exactly.
[[nodiscard]] std::string check_count(const std::string& what,
                                      std::size_t got, std::size_t want);

/// Collects failed checks; `failed()` is the number recorded.
class CheckLog {
 public:
  /// Records `reason` when non-empty; returns whether the check passed.
  bool expect(const std::string& reason);
  [[nodiscard]] std::size_t failed() const { return failures_.size(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

}  // namespace perfbench
