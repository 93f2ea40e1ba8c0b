// Damped Newton's method for square nonlinear systems F(x) = 0 with a
// forward-difference numerical Jacobian.
//
// Used to polish fluid-model equilibria found by transient integration and
// as an independent route to the same fixed point (the two must agree —
// see tests/fluid/cmfsd_test.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "btmf/math/matrix.h"

namespace btmf::math {

/// F(x) written into `out` (same length as x).
using VectorField =
    std::function<void(std::span<const double> x, std::span<double> out)>;

struct NewtonOptions {
  double tol = 1e-10;          ///< stop when ||F(x)||_inf <= tol
  std::size_t max_iterations = 100;
  double min_damping = 1.0 / 1024.0;
  /// Optional projection applied after each update (e.g. clamp populations
  /// to be non-negative). May be empty.
  std::function<void(std::span<double>)> project = {};
};

struct NewtonResult {
  std::vector<double> x;
  double residual_inf = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Numerical Jacobian of F at x via forward differences.
Matrix numerical_jacobian(const VectorField& f, std::span<const double> x,
                          double eps_rel = 1e-7);

/// Damped Newton: full step first, halving the step while the residual
/// does not decrease. Throws btmf::SolverError if the Jacobian is singular.
/// Non-convergence is reported via `converged = false`, not an exception,
/// so callers can fall back to longer transient integration.
NewtonResult newton_solve(const VectorField& f, std::vector<double> x0,
                          const NewtonOptions& options = {});

}  // namespace btmf::math
