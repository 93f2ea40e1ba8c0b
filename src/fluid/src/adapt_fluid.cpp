#include "btmf/fluid/adapt_fluid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "btmf/util/check.h"

namespace btmf::fluid {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Piecewise-linear unit step: 0 below 0, z in [0, 1], 1 above.
double smooth_step(double z) { return std::clamp(z, 0.0, 1.0); }

}  // namespace

void AdaptFluidParams::validate() const {
  BTMF_CHECK_MSG(phi_lo <= phi_hi, "adapt fluid needs phi_lo <= phi_hi");
  BTMF_CHECK_MSG(rate_up >= 0.0 && rate_down >= 0.0,
                 "adapt rates must be non-negative");
  BTMF_CHECK_MSG(smoothing > 0.0, "smoothing width must be positive");
  BTMF_CHECK_MSG(initial_rho >= 0.0 && initial_rho <= 1.0,
                 "initial rho must lie in [0, 1]");
}

AdaptFluidModel::AdaptFluidModel(const FluidParams& params,
                                 std::vector<double> class_entry_rates,
                                 double cheater_fraction,
                                 const AdaptFluidParams& adapt)
    : params_(params), rates_(std::move(class_entry_rates)),
      cheater_fraction_(cheater_fraction), adapt_(adapt) {
  params_.validate();
  adapt_.validate();
  BTMF_CHECK_MSG(!rates_.empty(), "need at least one peer class");
  BTMF_CHECK_MSG(cheater_fraction_ >= 0.0 && cheater_fraction_ < 1.0,
                 "cheater fraction must lie in [0, 1)");
  num_classes_ = static_cast<unsigned>(rates_.size());
  double total = 0.0;
  for (const double r : rates_) {
    BTMF_CHECK_MSG(r >= 0.0, "class entry rates must be non-negative");
    total += r;
  }
  BTMF_CHECK_MSG(total > 0.0, "at least one class entry rate must be positive");
}

double AdaptFluidModel::obedient_rate(unsigned i) const {
  // Class 1 has no virtual seed to withhold; cheating is meaningless.
  const double f = i >= 2 ? cheater_fraction_ : 0.0;
  return (1.0 - f) * rates_[i - 1];
}

double AdaptFluidModel::cheater_rate(unsigned i) const {
  const double f = i >= 2 ? cheater_fraction_ : 0.0;
  return f * rates_[i - 1];
}

std::size_t AdaptFluidModel::state_size() const {
  const std::size_t k = num_classes_;
  const std::size_t stages = k * (k + 1) / 2;
  return 2 * stages + 2 * k + k;  // two cohorts of x, two of y, rho
}

std::size_t AdaptFluidModel::x_index(bool cheater, unsigned i,
                                     unsigned j) const {
  BTMF_ASSERT(i >= 1 && i <= num_classes_ && j >= 1 && j <= i);
  const std::size_t stages =
      static_cast<std::size_t>(num_classes_) * (num_classes_ + 1) / 2;
  const std::size_t base = cheater ? stages : 0;
  return base + static_cast<std::size_t>(i - 1) * i / 2 + (j - 1);
}

std::size_t AdaptFluidModel::y_index(bool cheater, unsigned i) const {
  BTMF_ASSERT(i >= 1 && i <= num_classes_);
  const std::size_t stages =
      static_cast<std::size_t>(num_classes_) * (num_classes_ + 1) / 2;
  return 2 * stages + (cheater ? num_classes_ : 0) + (i - 1);
}

std::size_t AdaptFluidModel::rho_index(unsigned i) const {
  BTMF_ASSERT(i >= 1 && i <= num_classes_);
  const std::size_t stages =
      static_cast<std::size_t>(num_classes_) * (num_classes_ + 1) / 2;
  return 2 * stages + 2 * static_cast<std::size_t>(num_classes_) + (i - 1);
}

math::OdeRhs AdaptFluidModel::rhs() const {
  return [model = *this](double /*t*/, std::span<const double> state,
                         std::span<double> dstate) {
    const unsigned k = model.num_classes_;
    BTMF_ASSERT(state.size() == model.state_size());
    const double mu = model.params_.mu;
    const double eta = model.params_.eta;
    const double gamma = model.params_.gamma;

    const auto split = [&](bool cheater, unsigned i, unsigned j) {
      if (i == 1 || j == 1) return 1.0;
      if (cheater) return 1.0;
      return std::clamp(state[model.rho_index(i)], 0.0, 1.0);
    };

    // Pool totals over both cohorts.
    double x_total = 0.0;
    double donated = 0.0;
    double y_total = 0.0;
    for (const bool cheater : {false, true}) {
      for (unsigned i = 1; i <= k; ++i) {
        for (unsigned j = 1; j <= i; ++j) {
          const double x = state[model.x_index(cheater, i, j)];
          x_total += x;
          donated += (1.0 - split(cheater, i, j)) * x;
        }
        y_total += state[model.y_index(cheater, i)];
      }
    }
    const double pool_rate =
        x_total > 0.0 ? mu * (donated + y_total) / x_total : 0.0;
    const double virtual_rate =
        x_total > 0.0 ? mu * donated / x_total : 0.0;

    // Population chains, per cohort.
    for (const bool cheater : {false, true}) {
      for (unsigned i = 1; i <= k; ++i) {
        double inflow =
            cheater ? model.cheater_rate(i) : model.obedient_rate(i);
        for (unsigned j = 1; j <= i; ++j) {
          const std::size_t idx = model.x_index(cheater, i, j);
          const double x = state[idx];
          const double outflow =
              mu * eta * split(cheater, i, j) * x + pool_rate * x;
          dstate[idx] = inflow - outflow;
          inflow = outflow;
        }
        const std::size_t yi = model.y_index(cheater, i);
        dstate[yi] = inflow - gamma * state[yi];
      }
    }

    // rho dynamics for obedient multi-file classes.
    dstate[model.rho_index(1)] = 0.0;
    for (unsigned i = 2; i <= k; ++i) {
      const std::size_t ri = model.rho_index(i);
      const double rho = std::clamp(state[ri], 0.0, 1.0);
      if (x_total <= 0.0 || model.obedient_rate(i) <= 0.0) {
        dstate[ri] = 0.0;
        continue;
      }
      const double delta = (1.0 - rho) * mu - virtual_rate;
      const double up = model.adapt_.rate_up *
                        smooth_step((delta - model.adapt_.phi_hi) /
                                    model.adapt_.smoothing);
      const double down = model.adapt_.rate_down *
                          smooth_step((model.adapt_.phi_lo - delta) /
                                      model.adapt_.smoothing);
      // Population turnover: departing peers take their adapted rho with
      // them and newcomers arrive at initial_rho, pulling the class
      // average back at the relative arrival rate (capped for stiffness
      // while the class population is still tiny).
      double class_downloaders = 0.0;
      for (unsigned j = 1; j <= i; ++j) {
        class_downloaders += state[model.x_index(false, i, j)];
      }
      const double turnover =
          std::min(model.obedient_rate(i) /
                       std::max(class_downloaders, 1e-9),
                   1.0);
      // The (1 - rho) / rho factors keep rho inside [0, 1] and make the
      // boundaries genuine equilibria of the adaptation part.
      dstate[ri] = up * (1.0 - rho) - down * rho +
                   turnover * (model.adapt_.initial_rho - rho);
    }
  };
}

AdaptFluidEquilibrium AdaptFluidModel::solve() const {
  std::vector<double> y0(state_size(), 0.0);
  for (unsigned i = 1; i <= num_classes_; ++i) {
    y0[rho_index(i)] = adapt_.initial_rho;
  }

  math::EquilibriumOptions options;
  options.residual_tol = 1e-7;
  options.ode.rtol = 1e-8;
  options.ode.atol = 1e-11;
  // The rho switching law is only piecewise smooth; skip the Newton
  // polish and accept the transient-integration residual.
  options.polish_with_newton = false;

  const math::EquilibriumResult eq =
      math::find_equilibrium(rhs(), std::move(y0), options);

  AdaptFluidEquilibrium result;
  result.state = eq.y;
  result.residual_inf = eq.residual_inf;
  result.rho.resize(num_classes_);
  for (unsigned i = 1; i <= num_classes_; ++i) {
    result.rho[i - 1] = std::clamp(result.state[rho_index(i)], 0.0, 1.0);
  }

  const auto cohort_metrics = [&](bool cheater) {
    std::vector<double> online(num_classes_), download(num_classes_);
    for (unsigned i = 1; i <= num_classes_; ++i) {
      const double rate = cheater ? cheater_rate(i) : obedient_rate(i);
      if (rate <= 0.0) {
        online[i - 1] = kNaN;
        download[i - 1] = kNaN;
        continue;
      }
      double downloaders = 0.0;
      for (unsigned j = 1; j <= i; ++j) {
        downloaders += result.state[x_index(cheater, i, j)];
      }
      download[i - 1] = downloaders / rate;
      online[i - 1] = download[i - 1] + 1.0 / params_.gamma;
    }
    return make_per_class_metrics(std::move(online), std::move(download));
  };
  result.obedient = cohort_metrics(false);
  result.cheater = cohort_metrics(true);

  double online_sum = 0.0;
  double obedient_online_sum = 0.0;
  double obedient_files = 0.0;
  double files_sum = 0.0;
  for (unsigned i = 1; i <= num_classes_; ++i) {
    const double ro = obedient_rate(i);
    const double rc = cheater_rate(i);
    if (ro > 0.0) {
      online_sum += ro * result.obedient.online_time[i - 1];
      obedient_online_sum += ro * result.obedient.online_time[i - 1];
      obedient_files += ro * i;
    }
    if (rc > 0.0) online_sum += rc * result.cheater.online_time[i - 1];
    files_sum += (ro + rc) * i;
  }
  result.avg_online_per_file =
      files_sum > 0.0 ? online_sum / files_sum : kNaN;
  result.obedient_avg_online_per_file =
      obedient_files > 0.0 ? obedient_online_sum / obedient_files : kNaN;
  return result;
}

}  // namespace btmf::fluid
