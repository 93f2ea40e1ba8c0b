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

constexpr std::size_t kNoChain = static_cast<std::size_t>(-1);

}  // namespace

namespace detail {

/// system()'s lumped layout (cmfsd.h): stage 0 is phi_1, chain c holds
/// stages start[c] .. start[c + 1] - 1 (its files 2, 3, ...), and the
/// seed rows y^1..y^K follow from start.back().
struct CmfsdChains {
  double mu = 0.0;
  double gamma = 0.0;
  double head_tft = 0.0;             ///< mu eta: phi_1's TFT rate (P = 1)
  std::vector<double> tft;           ///< per chain: mu eta rho
  std::vector<double> donation;      ///< per chain: 1 - rho
  std::vector<std::size_t> start;    ///< per chain: first stage; then y^1
  std::vector<double> weight;        ///< per stage: rate of its classes
  std::vector<double> rate;          ///< per class: lambda_i
  std::vector<std::size_t> chain;    ///< per class: its chain
  std::vector<std::size_t> last;     ///< per class: the stage it leaves from

  [[nodiscard]] std::size_t seeds() const { return start.back(); }

  /// X = sum x^{i,j} and D = sum (1 - P) x^{i,j} of a lumped state.
  void totals(std::span<const double> state, double& x_total,
              double& donated) const {
    x_total = weight[0] * state[0];
    donated = 0.0;
    for (std::size_t c = 0; c + 1 < start.size(); ++c) {
      double mass = 0.0;
      for (std::size_t s = start[c]; s < start[c + 1]; ++s) {
        mass += weight[s] * state[s];
      }
      x_total += mass;
      donated += donation[c] * mass;
    }
  }

  /// Y = sum y^i of a lumped state.
  [[nodiscard]] double seed_total(std::span<const double> state) const {
    double y_total = 0.0;
    for (std::size_t i = 0; i < rate.size(); ++i) {
      y_total += state[seeds() + i];
    }
    return y_total;
  }
};

}  // namespace detail

namespace {

/// Groups the entering classes 2..K by rho into chains, in the order of
/// their first class, sums the rates each stage carries and notes the
/// stage each class leaves from.
std::shared_ptr<const detail::CmfsdChains> lump(
    const FluidParams& params, const std::vector<double>& rates,
    const std::vector<double>& rho) {
  auto c = std::make_shared<detail::CmfsdChains>();
  c->mu = params.mu;
  c->gamma = params.gamma;
  c->head_tft = params.mu * params.eta;
  c->chain.assign(rates.size(), kNoChain);
  std::vector<double> chain_rho;
  std::vector<std::size_t> files;  // per chain: its largest class
  for (std::size_t i = 1; i < rates.size(); ++i) {
    if (!(rates[i] > 0.0)) continue;
    std::size_t k = 0;
    while (k < chain_rho.size() && chain_rho[k] != rho[i]) ++k;
    if (k == chain_rho.size()) {
      chain_rho.push_back(rho[i]);
      files.push_back(0);
    }
    c->chain[i] = k;
    files[k] = i + 1;
  }
  std::size_t next = 1;
  for (std::size_t k = 0; k < chain_rho.size(); ++k) {
    c->tft.push_back(params.mu * params.eta * chain_rho[k]);
    c->donation.push_back(1.0 - chain_rho[k]);
    c->start.push_back(next);
    next += files[k] - 1;
  }
  c->start.push_back(next);
  c->weight.assign(next, 0.0);
  c->rate = rates;
  c->last.assign(rates.size(), 0);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    c->weight[0] += rates[i];
    if (c->chain[i] == kNoChain) continue;
    // Class i + 1 walks its chain's stages for files 2 .. i + 1.
    const std::size_t first = c->start[c->chain[i]];
    for (std::size_t s = first; s < first + i; ++s) c->weight[s] += rates[i];
    c->last[i] = first + i - 1;
  }
  return c;
}

/// Solves (c I - J0 - u g^T) z = r (see CmfsdModel::system): forward
/// substitution through c I - J0, lower triangular in the lumped order,
/// then the Sherman–Morrison correction z += q (g^T z) / (1 - g^T q)
/// with q = (c I - J0)^{-1} u.
class LumpedStages final : public math::StageSolver {
 public:
  explicit LumpedStages(std::shared_ptr<const detail::CmfsdChains> chains)
      : c_(std::move(chains)), out_(c_->tft.size()), inv_(c_->tft.size()),
        q_(c_->seeds() + c_->rate.size()), g_(q_.size()) {}

  void factor(double /*t*/, std::span<const double> state,
              double c) override {
    const detail::CmfsdChains& ch = *c_;
    const std::size_t seeds = ch.seeds();
    double x_total = 0.0;
    double donated = 0.0;
    ch.totals(state, x_total, donated);
    const double y_total = ch.seed_total(state);
    const bool pooled = x_total > 0.0;
    const double pool_rate =
        pooled ? ch.mu * (donated + y_total) / x_total : 0.0;

    head_out_ = ch.head_tft + pool_rate;
    head_inv_ = 1.0 / (c + head_out_);
    for (std::size_t k = 0; k < out_.size(); ++k) {
      out_[k] = ch.tft[k] + pool_rate;
      inv_[k] = 1.0 / (c + out_[k]);
    }
    inv_y_ = 1.0 / (c + ch.gamma);
    coupled_ = pooled;
    if (!pooled) return;
    // u = dF/dS: the profile drop along each chain (its head is fed by
    // phi_1), and on each y^i the mass its class leaves with.
    q_[0] = -state[0];
    g_[0] = -pool_rate * ch.weight[0] / x_total;
    for (std::size_t k = 0; k < out_.size(); ++k) {
      double upstream = state[0];
      for (std::size_t s = ch.start[k]; s < ch.start[k + 1]; ++s) {
        q_[s] = upstream - state[s];
        g_[s] = ch.weight[s] * (ch.mu * ch.donation[k] - pool_rate) / x_total;
        upstream = state[s];
      }
    }
    for (std::size_t i = 0; i < ch.rate.size(); ++i) {
      q_[seeds + i] = ch.rate[i] * state[ch.last[i]];
      g_[seeds + i] = ch.mu / x_total;
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
  /// (c I - J0)^{-1} r: phi_1, then down each chain, then each y^i.
  void chain_solve(std::span<double> r) const {
    const detail::CmfsdChains& ch = *c_;
    r[0] *= head_inv_;
    const double head_flow = head_out_ * r[0];
    for (std::size_t k = 0; k < out_.size(); ++k) {
      double inflow = head_flow;  // out_{s-1} z_{s-1}
      for (std::size_t s = ch.start[k]; s < ch.start[k + 1]; ++s) {
        r[s] = (r[s] + inflow) * inv_[k];
        inflow = out_[k] * r[s];
      }
    }
    const std::size_t seeds = ch.seeds();
    for (std::size_t i = 0; i < ch.rate.size(); ++i) {
      const double out =
          ch.chain[i] == kNoChain ? head_out_ : out_[ch.chain[i]];
      r[seeds + i] =
          (r[seeds + i] + ch.rate[i] * (out * r[ch.last[i]])) * inv_y_;
    }
  }

  std::shared_ptr<const detail::CmfsdChains> c_;
  double head_out_ = 0.0;      ///< mu eta + S
  double head_inv_ = 0.0;      ///< 1 / (c + mu eta + S)
  std::vector<double> out_;    ///< per chain: mu eta rho + S
  std::vector<double> inv_;    ///< per chain: 1 / (c + mu eta rho + S)
  double inv_y_ = 0.0;         ///< 1 / (c + gamma)
  std::vector<double> q_;      ///< (c I - J0)^{-1} u
  std::vector<double> g_;      ///< grad S
  double denominator_ = 1.0;   ///< 1 - g^T q
  bool coupled_ = false;       ///< X > 0, so u g^T is present
};

}  // namespace

CmfsdModel::CmfsdModel(const FluidParams& params,
                       std::vector<double> class_entry_rates, double rho)
    : CmfsdModel(params, class_entry_rates,
                 std::vector<double>(class_entry_rates.size(), rho)) {}

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
    // MFCD-like default.
    rho_.assign(rates_.size(), 1.0);
  } else {
    BTMF_CHECK_MSG(rho_.size() == rates_.size(),
                   "per-class rho size must match the number of classes");
    for (const double r : rho_) validate_rho(r);
  }
  chains_ = lump(params_, rates_, rho_);
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
  arrival.validate();
  math::OdeSystem ode;
  // Per unit of entry rate: phi_1 takes m(t) and every stage passes its
  // outflow on along its chain. Class i's seed row y^i takes lambda_i
  // times the outflow of its last stage.
  ode.rhs = [c = chains_, arrival, homogeneous = arrival.homogeneous()](
                double t, std::span<const double> state,
                std::span<double> dstate) {
    BTMF_ASSERT(state.size() == c->seeds() + c->rate.size());
    BTMF_ASSERT(dstate.size() == state.size());
    double x_total = 0.0;
    double donated = 0.0;
    c->totals(state, x_total, donated);
    const double y_total = c->seed_total(state);
    const double pool_rate =
        x_total > 0.0 ? c->mu * (donated + y_total) / x_total : 0.0;

    const double head_rate = c->head_tft + pool_rate;
    const double head_out = head_rate * state[0];
    dstate[0] = (homogeneous ? 1.0 : arrival.rate_at(1.0, t)) - head_out;
    for (std::size_t k = 0; k + 1 < c->start.size(); ++k) {
      const double rate = c->tft[k] + pool_rate;
      double inflow = head_out;
      for (std::size_t s = c->start[k]; s < c->start[k + 1]; ++s) {
        const double outflow = rate * state[s];
        dstate[s] = inflow - outflow;
        inflow = outflow;
      }
    }
    const std::size_t seeds = c->seeds();
    for (std::size_t i = 0; i < c->rate.size(); ++i) {
      const double rate = c->chain[i] == kNoChain
                              ? head_rate
                              : c->tft[c->chain[i]] + pool_rate;
      dstate[seeds + i] = c->rate[i] * (rate * state[c->last[i]]) -
                          c->gamma * state[seeds + i];
    }
  };
  ode.stages = [c = chains_] { return std::make_unique<LumpedStages>(c); };
  ode.autonomous = arrival.homogeneous();
  return ode;
}

std::size_t CmfsdModel::lumped_size() const {
  return chains_->seeds() + num_classes_;
}

std::vector<double> CmfsdModel::lumped_download_times(
    std::span<const double> lumped) const {
  BTMF_CHECK_MSG(lumped.size() == lumped_size(),
                 "lumped_download_times: state size mismatch");
  const detail::CmfsdChains& c = *chains_;
  std::vector<double> times(num_classes_, kNaN);
  for (std::size_t i = 0; i < num_classes_; ++i) {
    if (rates_[i] <= 0.0) continue;
    // Little's law through the stages: sum_j x^{i,j} / lambda_i.
    double time = lumped[0];
    if (i > 0) {
      const std::size_t first = c.start[c.chain[i]];
      for (std::size_t s = first; s < first + i; ++s) time += lumped[s];
    }
    times[i] = time;
  }
  return times;
}

double CmfsdModel::lumped_downloaders(std::span<const double> lumped) const {
  BTMF_CHECK_MSG(lumped.size() == lumped_size(),
                 "lumped_downloaders: state size mismatch");
  double x_total = 0.0;
  double donated = 0.0;
  chains_->totals(lumped, x_total, donated);
  return x_total;
}

double CmfsdModel::lumped_seeds(std::span<const double> lumped) const {
  BTMF_CHECK_MSG(lumped.size() == lumped_size(),
                 "lumped_seeds: state size mismatch");
  return chains_->seed_total(lumped);
}

std::vector<double> CmfsdModel::packed_state(
    std::span<const double> lumped) const {
  BTMF_CHECK_MSG(lumped.size() == lumped_size(),
                 "packed_state: state size mismatch");
  const detail::CmfsdChains& c = *chains_;
  std::vector<double> packed(state_size(), 0.0);
  for (unsigned i = 1; i <= num_classes_; ++i) {
    packed[y_index(i)] = lumped[c.seeds() + i - 1];
    const double rate = rates_[i - 1];
    if (!(rate > 0.0)) continue;
    // x^{i,j} = lambda_i phi_j, phi_2.. from the class's chain.
    packed[x_index(i, 1)] = rate * lumped[0];
    for (unsigned j = 2; j <= i; ++j) {
      packed[x_index(i, j)] = rate * lumped[c.start[c.chain[i - 1]] + j - 2];
    }
  }
  return packed;
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
