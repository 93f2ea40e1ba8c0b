#include "btmf/fluid/cmfsd.h"

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "btmf/math/roots.h"
#include "btmf/math/vec.h"
#include "btmf/util/check.h"
#include "btmf/util/error.h"

namespace btmf::fluid {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void validate_rho(double rho) {
  BTMF_CHECK_MSG(rho >= 0.0 && rho <= 1.0,
                 "bandwidth allocation ratio rho must lie in [0, 1]");
}

/// The right-hand side's per-stage constants in packed-state order
/// (stage (i, j) at x_index(i, j)).
struct StageCoefficients {
  std::vector<double> rate;       ///< lambda_i of the stage's class
  std::vector<double> tft;        ///< mu * eta * P(i, j)
  std::vector<double> donation;   ///< 1 - P(i, j)
};

StageCoefficients stage_coefficients(const CmfsdModel& model) {
  const FluidParams& params = model.params();
  StageCoefficients c;
  for (unsigned i = 1; i <= model.num_classes(); ++i) {
    for (unsigned j = 1; j <= i; ++j) {
      const double split = model.bandwidth_split(i, j);
      c.rate.push_back(model.class_entry_rates()[i - 1]);
      c.tft.push_back(params.mu * params.eta * split);
      c.donation.push_back(1.0 - split);
    }
  }
  return c;
}

/// Solves (c I - J0 - u g^T) z = r (see CmfsdModel::system): down each
/// class's chain of c I - J0, then the Sherman–Morrison correction
/// z += q (g^T z) / (1 - g^T q) with q = (c I - J0)^{-1} u.
class CmfsdStages final : public math::StageSolver {
 public:
  CmfsdStages(StageCoefficients coefficients, std::size_t num_classes,
              double mu, double gamma)
      : c_(std::move(coefficients)), classes_(num_classes), mu_(mu),
        gamma_(gamma), inv_x_(c_.tft.size()), out_(c_.tft.size()),
        q_(c_.tft.size() + num_classes), g_(q_.size()) {}

  void factor(double /*t*/, std::span<const double> state,
              double c) override {
    const std::size_t stages = c_.tft.size();
    double x_total = 0.0;
    double donated = 0.0;
    for (std::size_t s = 0; s < stages; ++s) {
      x_total += state[s];
      donated += c_.donation[s] * state[s];
    }
    double y_total = 0.0;
    for (std::size_t s = stages; s < state.size(); ++s) y_total += state[s];
    const bool pooled = x_total > 0.0;
    const double pool_rate = pooled ? mu_ * (donated + y_total) / x_total : 0.0;

    inv_y_ = 1.0 / (c + gamma_);
    for (std::size_t s = 0; s < stages; ++s) {
      out_[s] = c_.tft[s] + pool_rate;
      inv_x_[s] = 1.0 / (c + out_[s]);
    }
    coupled_ = pooled;
    if (!pooled) return;
    std::size_t s = 0;
    for (std::size_t i = 0; i < classes_; ++i) {
      double upstream = 0.0;  // x_{s-1} within the chain
      for (std::size_t j = 0; j <= i; ++j, ++s) {
        q_[s] = upstream - state[s];
        g_[s] = (mu_ * c_.donation[s] - pool_rate) / x_total;
        upstream = state[s];
      }
      q_[stages + i] = upstream;
      g_[stages + i] = mu_ / x_total;
    }
    chain_solve(q_);
    const double gq = math::dot(g_, q_);
    denominator_ = 1.0 - gq;
    math::check_pivot(denominator_, 1.0 + std::abs(gq), "CMFSD stage solve");
  }

  void solve(std::span<double> r) const override {
    chain_solve(r);
    if (coupled_) math::axpy(math::dot(g_, r) / denominator_, q_, r);
  }

 private:
  /// (c I - J0)^{-1} r: down each class's stage chain into its seed row.
  void chain_solve(std::span<double> r) const {
    const std::size_t stages = c_.tft.size();
    std::size_t s = 0;
    for (std::size_t i = 0; i < classes_; ++i) {
      double inflow = 0.0;  // out_{s-1} z_{s-1}
      for (std::size_t j = 0; j <= i; ++j, ++s) {
        r[s] = (r[s] + inflow) * inv_x_[s];
        inflow = out_[s] * r[s];
      }
      r[stages + i] = (r[stages + i] + inflow) * inv_y_;
    }
  }

  StageCoefficients c_;
  std::size_t classes_;
  double mu_;
  double gamma_;
  std::vector<double> inv_x_;  ///< 1 / (c + mu eta P + S)
  std::vector<double> out_;    ///< mu eta P + S
  double inv_y_ = 0.0;         ///< 1 / (c + gamma)
  std::vector<double> q_;      ///< (c I - J0)^{-1} u
  std::vector<double> g_;      ///< grad S
  double denominator_ = 1.0;   ///< 1 - g^T q
  bool coupled_ = false;       ///< X > 0, so u g^T is present
};

}  // namespace

CmfsdModel::CmfsdModel(const FluidParams& params,
                       std::vector<double> class_entry_rates, double rho)
    : CmfsdModel(params, std::move(class_entry_rates),
                 std::vector<double>{}) {
  validate_rho(rho);
  rho_.assign(num_classes_, rho);
}

CmfsdModel::CmfsdModel(const FluidParams& params,
                       std::vector<double> class_entry_rates,
                       std::vector<double> rho_per_class)
    : params_(params), rates_(std::move(class_entry_rates)),
      rho_(std::move(rho_per_class)) {
  params_.validate();
  BTMF_CHECK_MSG(!rates_.empty(), "need at least one peer class");
  num_classes_ = static_cast<unsigned>(rates_.size());
  double total = 0.0;
  for (const double r : rates_) {
    BTMF_CHECK_MSG(r >= 0.0, "class entry rates must be non-negative");
    total += r;
  }
  BTMF_CHECK_MSG(total > 0.0, "at least one class entry rate must be positive");
  if (rho_.empty()) {
    // An empty vector means "no virtual seeding anywhere" (rho = 1), the
    // MFCD-like default; the uniform-rho constructor overwrites this.
    rho_.assign(rates_.size(), 1.0);
  } else {
    BTMF_CHECK_MSG(rho_.size() == rates_.size(),
                   "per-class rho size must match the number of classes");
    for (const double r : rho_) validate_rho(r);
  }
}

std::size_t CmfsdModel::state_size() const {
  const std::size_t k = num_classes_;
  return k * (k + 1) / 2 + k;
}

std::size_t CmfsdModel::x_index(unsigned i, unsigned j) const {
  BTMF_ASSERT(i >= 1 && i <= num_classes_);
  BTMF_ASSERT(j >= 1 && j <= i);
  // Stages of class i start after the 1 + 2 + ... + (i-1) stages of the
  // lower classes.
  return static_cast<std::size_t>(i - 1) * i / 2 + (j - 1);
}

std::size_t CmfsdModel::y_index(unsigned i) const {
  BTMF_ASSERT(i >= 1 && i <= num_classes_);
  const std::size_t k = num_classes_;
  return k * (k + 1) / 2 + (i - 1);
}

double CmfsdModel::bandwidth_split(unsigned i, unsigned j) const {
  BTMF_CHECK_MSG(i >= 1 && i <= num_classes_ && j >= 1 && j <= i,
                 "bandwidth_split: class/stage out of range");
  if (i == 1 || j == 1) return 1.0;  // nothing finished yet
  return rho_[i - 1];
}

math::OdeRhs CmfsdModel::rhs() const {
  // The closure owns its coefficients, so it outlives the model.
  return [c = stage_coefficients(*this), rates = rates_, mu = params_.mu,
          gamma = params_.gamma, size = state_size()](
             double /*t*/, std::span<const double> state,
             std::span<double> dstate) {
    BTMF_ASSERT(state.size() == size);
    BTMF_ASSERT(dstate.size() == size);
    const std::size_t stages = c.tft.size();

    // Pool totals: all downloaders, virtual-seed bandwidth donors, seeds.
    double x_total = 0.0;
    double donated = 0.0;  // sum (1 - P(l,m)) x^{l,m}
    for (std::size_t s = 0; s < stages; ++s) {
      x_total += state[s];
      donated += c.donation[s] * state[s];
    }
    double y_total = 0.0;
    for (std::size_t s = stages; s < size; ++s) y_total += state[s];

    // Seed-pool service rate per unit of downloader mass:
    // S^{i,j} = x^{i,j} * mu (donated + y_total) / x_total, defined as 0
    // in the empty-torrent limit.
    const double pool_rate =
        x_total > 0.0 ? mu * (donated + y_total) / x_total : 0.0;

    std::size_t s = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      double inflow = rates[i];
      for (std::size_t j = 0; j <= i; ++j, ++s) {
        const double outflow = c.tft[s] * state[s] + pool_rate * state[s];
        dstate[s] = inflow - outflow;
        inflow = outflow;  // completion of file j feeds stage j + 1
      }
      const std::size_t yi = stages + i;
      dstate[yi] = inflow - gamma * state[yi];
    }
  };
}

math::OdeRhs CmfsdModel::rhs(const ArrivalProcess& arrival) const {
  arrival.validate();
  math::OdeRhs base = rhs();
  if (arrival.homogeneous()) return base;
  // Entry rates only feed the first download stage x^{i,1}, linearly, so
  // the time-varying RHS is the autonomous one plus (m(t) - 1) lambda_i
  // on those rows.
  return [base = std::move(base), model = *this, arrival](
             double t, std::span<const double> state,
             std::span<double> dstate) {
    base(t, state, dstate);
    const double extra = arrival.rate_at(1.0, t) - 1.0;
    for (unsigned i = 1; i <= model.num_classes(); ++i) {
      dstate[model.x_index(i, 1)] += extra * model.rates_[i - 1];
    }
  };
}

math::OdeSystem CmfsdModel::system(const ArrivalProcess& arrival) const {
  math::OdeSystem ode;
  ode.rhs = rhs(arrival);
  ode.stages = [c = stage_coefficients(*this), classes = rates_.size(),
                mu = params_.mu, gamma = params_.gamma] {
    return std::make_unique<CmfsdStages>(c, classes, mu, gamma);
  };
  ode.autonomous = arrival.homogeneous();
  return ode;
}

CmfsdEquilibrium CmfsdModel::solve() const {
  constexpr double kResidualTol = 1e-9;
  const double mu = params_.mu;
  const double gamma = params_.gamma;
  double demand = 0.0;  // sum_i i lambda_i
  double seeds = 0.0;   // Y = sum_i lambda_i / gamma
  for (unsigned i = 1; i <= num_classes_; ++i) {
    demand += i * rates_[i - 1];
    seeds += rates_[i - 1] / gamma;
  }
  if (!(demand > mu * seeds)) {
    std::ostringstream message;
    message << "CMFSD has no steady state: sum_i i*lambda_i = " << demand
            << " <= mu * sum_i lambda_i / gamma = " << mu * seeds
            << ", so the seeds alone outserve every download and the "
               "downloader populations drain to zero";
    throw SolverError(message.str());
  }

  // Every stage carries flux lambda_i at a steady state, so with the pool
  // rate S each population is x^{i,j} = lambda_i / (mu eta P(i,j) + S)
  // and S solves g(S) = S X(S) - mu (D(S) + Y) = 0. S X(S) rises and the
  // donated mass D(S) falls with S, so g is strictly increasing from
  // g(0+) < 0 to g(inf) = demand - mu Y > 0: the root exists and is
  // unique. At rho = 0 g is singular at S = 0, so the bracket starts
  // from a positive guess: the rho = 1 closed form.
  const StageCoefficients c = stage_coefficients(*this);
  const auto g = [&](double pool) {
    double served = 0.0;   // S X(S)
    double donated = 0.0;  // D(S)
    for (std::size_t s = 0; s < c.tft.size(); ++s) {
      const double x = c.rate[s] / (c.tft[s] + pool);
      served += pool * x;
      donated += c.donation[s] * x;
    }
    return served - mu * (donated + seeds);
  };
  double lo = mu * params_.eta * mu * seeds / (demand - mu * seeds);
  double hi = lo;
  for (; g(lo) > 0.0; lo *= 0.5) hi = lo;
  for (; g(hi) < 0.0; hi *= 2.0) lo = hi;
  math::RootOptions root_options;
  root_options.x_tol = 4.0 * std::numeric_limits<double>::epsilon() * hi;
  root_options.f_tol = 0.0;
  const double pool =
      lo == hi ? lo : math::brent_root(g, lo, hi, root_options);

  CmfsdEquilibrium result;
  result.state.assign(state_size(), 0.0);
  for (std::size_t s = 0; s < c.tft.size(); ++s) {
    const double x = c.rate[s] / (c.tft[s] + pool);
    result.state[s] = x;
    result.total_downloaders += x;
    result.virtual_seed_bandwidth += c.donation[s] * mu * x;
  }
  for (unsigned i = 1; i <= num_classes_; ++i) {
    result.state[y_index(i)] = rates_[i - 1] / gamma;
    result.total_seeds += result.state[y_index(i)];
  }

  // Certify the point against the full right-hand side.
  std::vector<double> residual(state_size());
  rhs()(0.0, result.state, residual);
  result.residual_inf =
      math::norm_inf(residual) / (1.0 + math::norm_inf(result.state));
  if (!(result.residual_inf <= kResidualTol)) {
    std::ostringstream message;
    message << "CMFSD: the pool-rate root S = " << pool
            << " leaves residual " << result.residual_inf << " above "
            << kResidualTol;
    throw SolverError(message.str());
  }
  result.metrics = metrics_from_state(result.state);
  return result;
}

PerClassMetrics CmfsdModel::metrics_from_state(
    std::span<const double> state) const {
  BTMF_CHECK_MSG(state.size() == state_size(),
                 "metrics_from_state: state size mismatch");
  std::vector<double> online(num_classes_), download(num_classes_);
  for (unsigned i = 1; i <= num_classes_; ++i) {
    const double rate = rates_[i - 1];
    if (rate <= 0.0) {
      online[i - 1] = kNaN;
      download[i - 1] = kNaN;
      continue;
    }
    double downloaders = 0.0;
    for (unsigned j = 1; j <= i; ++j) downloaders += state[x_index(i, j)];
    // Little's law through the download stages, then one seeding residence.
    download[i - 1] = downloaders / rate;
    online[i - 1] = download[i - 1] + 1.0 / params_.gamma;
  }
  return make_per_class_metrics(std::move(online), std::move(download));
}

}  // namespace btmf::fluid
