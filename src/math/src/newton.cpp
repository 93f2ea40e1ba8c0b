#include "btmf/math/newton.h"

#include <algorithm>
#include <cmath>

#include "btmf/math/vec.h"
#include "btmf/util/check.h"
#include "btmf/util/error.h"

namespace btmf::math {

Matrix numerical_jacobian(const VectorField& f, std::span<const double> x,
                          double eps_rel) {
  const std::size_t n = x.size();
  BTMF_CHECK_MSG(n > 0, "numerical_jacobian: empty state");
  std::vector<double> x_pert(x.begin(), x.end());
  std::vector<double> f0(n), f1(n);
  f(x, f0);

  Matrix jac(n, n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const double h = eps_rel * std::max(std::abs(x[c]), 1.0);
    x_pert[c] = x[c] + h;
    f(x_pert, f1);
    x_pert[c] = x[c];
    const double inv_h = 1.0 / h;
    for (std::size_t r = 0; r < n; ++r) {
      jac(r, c) = (f1[r] - f0[r]) * inv_h;
    }
  }
  return jac;
}

NewtonResult newton_solve(const VectorField& f, std::vector<double> x0,
                          const NewtonOptions& options) {
  const std::size_t n = x0.size();
  BTMF_CHECK_MSG(n > 0, "newton_solve: empty state");

  NewtonResult result;
  result.x = std::move(x0);
  std::vector<double> fx(n), trial(n), f_trial(n);

  f(result.x, fx);
  result.residual_inf = norm_inf(fx);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    if (result.residual_inf <= options.tol) {
      result.converged = true;
      return result;
    }
    const Matrix jac = numerical_jacobian(f, result.x);
    const LuDecomposition lu(jac);
    // Newton step solves J d = -F.
    std::vector<double> neg_f(fx);
    scale(-1.0, neg_f);
    const std::vector<double> step = lu.solve(neg_f);

    double damping = 1.0;
    double trial_residual = result.residual_inf;
    bool improved = false;
    while (damping >= options.min_damping) {
      for (std::size_t i = 0; i < n; ++i) {
        trial[i] = result.x[i] + damping * step[i];
      }
      if (options.project) options.project(trial);
      f(trial, f_trial);
      trial_residual = norm_inf(f_trial);
      if (std::isfinite(trial_residual) &&
          trial_residual < result.residual_inf) {
        improved = true;
        break;
      }
      damping *= 0.5;
    }
    if (!improved) {
      // Stalled: report the best point found without claiming convergence.
      result.iterations = iter + 1;
      return result;
    }
    result.x = trial;
    fx = f_trial;
    result.residual_inf = trial_residual;
    result.iterations = iter + 1;
  }
  result.converged = result.residual_inf <= options.tol;
  return result;
}

}  // namespace btmf::math
