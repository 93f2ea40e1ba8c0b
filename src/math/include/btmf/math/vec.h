// Free-function vector kernels over std::vector<double> / std::span.
//
// The fluid-model state vectors are small (tens of entries), so a full
// linear-algebra expression library would be overkill; these kernels are
// the handful of BLAS-1 operations the integrators and Newton need.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "btmf/util/check.h"

namespace btmf::math {

using DVec = std::vector<double>;

/// y += a * x
inline void axpy(double a, std::span<const double> x, std::span<double> y) {
  BTMF_ASSERT(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

/// x *= a
inline void scale(double a, std::span<double> x) {
  for (double& v : x) v *= a;
}

inline double dot(std::span<const double> x, std::span<const double> y) {
  BTMF_ASSERT(x.size() == y.size());
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

inline double norm2(std::span<const double> x) {
  return std::sqrt(dot(x, x));
}

inline double norm_inf(std::span<const double> x) {
  double m = 0.0;
  for (const double v : x) m = std::max(m, std::abs(v));
  return m;
}

/// Weighted RMS norm with per-component scale |err_i| / (atol + rtol*|y_i|),
/// the standard error measure for adaptive ODE step control (Hairer I.4).
inline double wrms_norm(std::span<const double> err, std::span<const double> y,
                        double atol, double rtol) {
  BTMF_ASSERT(err.size() == y.size());
  if (err.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < err.size(); ++i) {
    const double scale_i = atol + rtol * std::abs(y[i]);
    const double e = err[i] / scale_i;
    s += e * e;
  }
  return std::sqrt(s / static_cast<double>(err.size()));
}

/// True if every component is finite.
inline bool all_finite(std::span<const double> x) {
  for (const double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Componentwise max(x, 0) — used to clamp populations that dip a hair
/// below zero from integrator truncation error. A NaN or -0 stays as it
/// is. Without a branch or a flag, the loop vectorises.
inline void clamp_nonnegative(std::span<double> x) {
  for (double& v : x) v = v < 0.0 ? 0.0 : v;
}

}  // namespace btmf::math
