#include "btmf/fluid/single_torrent.h"

#include <cmath>
#include <memory>

#include "btmf/util/check.h"

namespace btmf::fluid {

namespace {

/// (c I - J) = [[c + mu eta, mu], [-mu eta, c + gamma - mu]], inverted by
/// its adjugate.
class SingleTorrentStages final : public math::StageSolver {
 public:
  explicit SingleTorrentStages(const FluidParams& params) : params_(params) {}

  void factor(double /*t*/, std::span<const double> /*y*/,
              double c) override {
    const double tft = params_.mu * params_.eta;
    a_ = c + tft;
    d_ = c + params_.gamma - params_.mu;
    const double cross = params_.mu * tft;
    det_ = a_ * d_ + cross;
    math::check_pivot(det_, std::abs(a_ * d_) + cross, "single torrent");
  }

  void solve(std::span<double> r) const override {
    const double x = (d_ * r[0] - params_.mu * r[1]) / det_;
    const double s = (a_ * r[1] + params_.mu * params_.eta * r[0]) / det_;
    r[0] = x;
    r[1] = s;
  }

 private:
  FluidParams params_;
  double a_ = 0.0;
  double d_ = 0.0;
  double det_ = 1.0;
};

}  // namespace

double single_torrent_download_time(const FluidParams& params) {
  params.validate();
  BTMF_CHECK_MSG(params.single_torrent_stable(),
                 "single-torrent model requires gamma > mu (otherwise the "
                 "seeds alone satisfy all demand and the upload-constrained "
                 "closed form does not apply)");
  return (params.gamma - params.mu) / (params.gamma * params.mu * params.eta);
}

SingleTorrentEquilibrium single_torrent_equilibrium(const FluidParams& params,
                                                    double entry_rate) {
  BTMF_CHECK_MSG(entry_rate > 0.0, "entry rate must be positive");
  const double t_download = single_torrent_download_time(params);
  SingleTorrentEquilibrium eq;
  eq.seeds = entry_rate / params.gamma;
  eq.downloaders = entry_rate * t_download;
  eq.download_time = t_download;
  eq.online_time = t_download + 1.0 / params.gamma;
  return eq;
}

math::OdeRhs single_torrent_rhs(const FluidParams& params, double entry_rate) {
  params.validate();
  BTMF_CHECK_MSG(entry_rate >= 0.0, "entry rate must be non-negative");
  return [params, entry_rate](double /*t*/, std::span<const double> y,
                              std::span<double> dydt) {
    BTMF_ASSERT(y.size() == 2 && dydt.size() == 2);
    const double x = y[0];
    const double s = y[1];
    const double service = params.mu * (params.eta * x + s);
    dydt[0] = entry_rate - service;
    dydt[1] = service - params.gamma * s;
  };
}

math::OdeRhs single_torrent_rhs(const FluidParams& params, double entry_rate,
                                const ArrivalProcess& arrival) {
  arrival.validate();
  math::OdeRhs base = single_torrent_rhs(params, entry_rate);
  if (arrival.homogeneous()) return base;
  return [base = std::move(base), entry_rate, arrival](
             double t, std::span<const double> y, std::span<double> dydt) {
    base(t, y, dydt);
    dydt[0] += (arrival.rate_at(1.0, t) - 1.0) * entry_rate;
  };
}

math::OdeSystem single_torrent_system(const FluidParams& params,
                                      double entry_rate,
                                      const ArrivalProcess& arrival) {
  math::OdeSystem ode;
  ode.rhs = single_torrent_rhs(params, entry_rate, arrival);
  ode.stages = [params] {
    return std::make_unique<SingleTorrentStages>(params);
  };
  ode.autonomous = arrival.homogeneous();
  return ode;
}

}  // namespace btmf::fluid
