#include "btmf/fluid/mtcd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "btmf/math/vec.h"
#include "btmf/util/check.h"

namespace btmf::fluid {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void validate_rates(std::span<const double> rates) {
  BTMF_CHECK_MSG(!rates.empty(), "need at least one peer class");
  double total = 0.0;
  for (const double r : rates) {
    BTMF_CHECK_MSG(r >= 0.0, "class entry rates must be non-negative");
    total += r;
  }
  BTMF_CHECK_MSG(total > 0.0, "at least one class entry rate must be positive");
}

/// Solves (c I - J0 - u v^T) z = r (see mtcd_system): the 2x2 blocks of
/// c I - J0 by substitution, then the Sherman–Morrison correction
/// z += q (v^T z) / (1 - v^T q) with q = (c I - J0)^{-1} u.
class MtcdStages final : public math::StageSolver {
 public:
  MtcdStages(const FluidParams& params, std::size_t num_classes)
      : params_(params), classes_(num_classes), inv_x_(num_classes),
        out_(num_classes), q_(2 * num_classes), v_(2 * num_classes) {}

  void factor(double /*t*/, std::span<const double> state,
              double c) override {
    const auto x = state.first(classes_);
    const auto y = state.subspan(classes_);
    double seed_service = 0.0;       // B
    double share_denominator = 0.0;  // W
    for (std::size_t k = 0; k < classes_; ++k) {
      const double files = static_cast<double>(k + 1);
      seed_service += params_.mu / files * y[k];
      share_denominator += x[k] / files;
    }
    const bool shared = share_denominator > 0.0;
    const double per_share = shared ? seed_service / share_denominator : 0.0;
    inv_y_ = 1.0 / (c + params_.gamma);
    for (std::size_t k = 0; k < classes_; ++k) {
      const double files = static_cast<double>(k + 1);
      out_[k] = (params_.eta * params_.mu + per_share) / files;
      inv_x_[k] = 1.0 / (c + out_[k]);
    }
    coupled_ = shared;
    if (!shared) return;
    for (std::size_t k = 0; k < classes_; ++k) {
      const double files = static_cast<double>(k + 1);
      const double share = (x[k] / files) / share_denominator;
      q_[k] = -share;
      q_[classes_ + k] = share;
      v_[k] = -per_share / files;
      v_[classes_ + k] = params_.mu / files;
    }
    block_solve(q_);
    const double vq = math::dot(v_, q_);
    denominator_ = 1.0 - vq;
    math::check_pivot(denominator_, 1.0 + std::abs(vq), "MTCD stage solve");
  }

  void solve(std::span<double> r) const override {
    block_solve(r);
    if (coupled_) math::axpy(math::dot(v_, r) / denominator_, q_, r);
  }

 private:
  /// (c I - J0)^{-1} r: each class's x row, then its y row.
  void block_solve(std::span<double> r) const {
    for (std::size_t k = 0; k < classes_; ++k) {
      r[k] *= inv_x_[k];
      r[classes_ + k] = (r[classes_ + k] + out_[k] * r[k]) * inv_y_;
    }
  }

  FluidParams params_;
  std::size_t classes_;
  std::vector<double> inv_x_;  ///< 1 / (c + d_i)
  std::vector<double> out_;    ///< d_i
  double inv_y_ = 0.0;         ///< 1 / (c + gamma)
  std::vector<double> q_;      ///< (c I - J0)^{-1} u
  std::vector<double> v_;
  double denominator_ = 1.0;   ///< 1 - v^T q
  bool coupled_ = false;       ///< W > 0, so u v^T is present
};

}  // namespace

double mtcd_per_file_factor(const FluidParams& params,
                            std::span<const double> class_entry_rates) {
  params.validate();
  validate_rates(class_entry_rates);
  double sum = 0.0;
  double weighted_sum = 0.0;
  for (std::size_t k = 0; k < class_entry_rates.size(); ++k) {
    sum += class_entry_rates[k];
    weighted_sum += class_entry_rates[k] / static_cast<double>(k + 1);
  }
  const double a = (params.gamma * sum - params.mu * weighted_sum) /
                   (params.gamma * params.mu * params.eta * sum);
  BTMF_CHECK_MSG(a > 0.0,
                 "MTCD equilibrium infeasible: seed capacity alone exceeds "
                 "demand (gamma * sum lambda <= mu * sum lambda/l)");
  return a;
}

MtcdEquilibrium mtcd_equilibrium(const FluidParams& params,
                                 std::span<const double> class_entry_rates) {
  const double a = mtcd_per_file_factor(params, class_entry_rates);
  const std::size_t num_classes = class_entry_rates.size();

  MtcdEquilibrium eq;
  eq.per_file_factor = a;
  eq.downloaders.resize(num_classes);
  eq.seeds.resize(num_classes);
  std::vector<double> online(num_classes), download(num_classes);
  for (std::size_t k = 0; k < num_classes; ++k) {
    const double files = static_cast<double>(k + 1);
    const double rate = class_entry_rates[k];
    eq.downloaders[k] = files * rate * a;
    eq.seeds[k] = rate / params.gamma;
    if (rate > 0.0) {
      download[k] = files * a;
      online[k] = files * a + 1.0 / params.gamma;
    } else {
      download[k] = kNaN;
      online[k] = kNaN;
    }
  }
  eq.metrics = make_per_class_metrics(std::move(online), std::move(download));
  return eq;
}

math::OdeRhs mtcd_rhs(const FluidParams& params,
                      std::vector<double> class_entry_rates) {
  params.validate();
  validate_rates(class_entry_rates);
  const std::size_t num_classes = class_entry_rates.size();
  // Each class's per-torrent upload mu/l and its TFT rate eta mu/l.
  std::vector<double> upload(num_classes);
  std::vector<double> tft(num_classes);
  for (std::size_t k = 0; k < num_classes; ++k) {
    const double files = static_cast<double>(k + 1);
    upload[k] = params.mu / files;
    tft[k] = params.eta * params.mu / files;
  }
  return [gamma = params.gamma, rates = std::move(class_entry_rates),
          upload = std::move(upload), tft = std::move(tft), num_classes](
             double /*t*/, std::span<const double> state,
             std::span<double> dstate) {
    BTMF_ASSERT(state.size() == 2 * num_classes);
    BTMF_ASSERT(dstate.size() == 2 * num_classes);
    BTMF_ASSERT(state.data() != dstate.data());
    const auto x = state.first(num_classes);
    const auto y = state.subspan(num_classes);

    // Total seed service sum_l (mu/l) y_l and the share denominator
    // sum_l x_l / l. Each x_l / l waits in dstate[l] for its share.
    double seed_service = 0.0;
    double share_denominator = 0.0;
    for (std::size_t k = 0; k < num_classes; ++k) {
      const double weighted = x[k] / static_cast<double>(k + 1);
      seed_service += upload[k] * y[k];
      share_denominator += weighted;
      dstate[k] = weighted;
    }

    for (std::size_t k = 0; k < num_classes; ++k) {
      const double tft_service = tft[k] * x[k];
      const double share =
          share_denominator > 0.0 ? dstate[k] / share_denominator : 0.0;
      const double from_seeds = share * seed_service;
      const double completion = tft_service + from_seeds;
      dstate[k] = rates[k] - completion;
      dstate[num_classes + k] = completion - gamma * y[k];
    }
  };
}

math::OdeRhs mtcd_rhs(const FluidParams& params,
                      std::vector<double> class_entry_rates,
                      const ArrivalProcess& arrival) {
  arrival.validate();
  math::OdeRhs base = mtcd_rhs(params, class_entry_rates);
  if (arrival.homogeneous()) return base;
  // The entry rates enter dx_i linearly, so the time-varying RHS is the
  // autonomous one plus (m(t) - 1) lambda_i on the downloader rows.
  const std::size_t num_classes = class_entry_rates.size();
  return [base = std::move(base), rates = std::move(class_entry_rates),
          arrival, num_classes](double t, std::span<const double> state,
                                std::span<double> dstate) {
    base(t, state, dstate);
    const double extra = arrival.rate_at(1.0, t) - 1.0;
    for (std::size_t k = 0; k < num_classes; ++k) {
      dstate[k] += extra * rates[k];
    }
  };
}

math::OdeSystem mtcd_system(const FluidParams& params,
                            std::vector<double> class_entry_rates,
                            const ArrivalProcess& arrival) {
  const std::size_t num_classes = class_entry_rates.size();
  math::OdeSystem ode;
  ode.rhs = mtcd_rhs(params, std::move(class_entry_rates), arrival);
  ode.stages = [params, num_classes] {
    return std::make_unique<MtcdStages>(params, num_classes);
  };
  ode.autonomous = arrival.homogeneous();
  return ode;
}

}  // namespace btmf::fluid
