#include "btmf/fluid/cmfsd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "btmf/fluid/correlation.h"
#include "btmf/fluid/mfcd.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/math/equilibrium.h"
#include "btmf/math/newton.h"
#include "btmf/math/vec.h"
#include "btmf/util/error.h"

namespace btmf::fluid {
namespace {

std::vector<double> paper_rates(double p, double lambda0 = 1.0) {
  return CorrelationModel(10, p, lambda0).system_entry_rates();
}

TEST(CmfsdTest, StateLayoutIsPackedTriangle) {
  const CmfsdModel model(kPaperParams, paper_rates(0.5), 0.5);
  EXPECT_EQ(model.state_size(), 10u * 11u / 2u + 10u);  // 65
  EXPECT_EQ(model.x_index(1, 1), 0u);
  EXPECT_EQ(model.x_index(2, 1), 1u);
  EXPECT_EQ(model.x_index(2, 2), 2u);
  EXPECT_EQ(model.x_index(3, 1), 3u);
  EXPECT_EQ(model.x_index(10, 10), 54u);
  EXPECT_EQ(model.y_index(1), 55u);
  EXPECT_EQ(model.y_index(10), 64u);
}

TEST(CmfsdTest, BandwidthSplitImplementsP) {
  const CmfsdModel model(kPaperParams, paper_rates(0.5), 0.3);
  // P(i, j) = 1 when i == 1 or j == 1, rho otherwise.
  EXPECT_DOUBLE_EQ(model.bandwidth_split(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(model.bandwidth_split(5, 1), 1.0);
  EXPECT_DOUBLE_EQ(model.bandwidth_split(5, 2), 0.3);
  EXPECT_DOUBLE_EQ(model.bandwidth_split(10, 10), 0.3);
  EXPECT_THROW((void)model.bandwidth_split(0, 1), ConfigError);
  EXPECT_THROW((void)model.bandwidth_split(3, 4), ConfigError);
}

TEST(CmfsdTest, InvalidConstructionThrows) {
  EXPECT_THROW((void)CmfsdModel(kPaperParams, {}, 0.5), ConfigError);
  EXPECT_THROW((void)CmfsdModel(kPaperParams, {0.0, 0.0}, 0.5), ConfigError);
  EXPECT_THROW((void)CmfsdModel(kPaperParams, {-1.0}, 0.5), ConfigError);
  EXPECT_THROW((void)CmfsdModel(kPaperParams, {1.0}, 1.5), ConfigError);
  EXPECT_THROW((void)CmfsdModel(kPaperParams, {1.0}, -0.1), ConfigError);
  EXPECT_THROW(
      CmfsdModel(kPaperParams, {1.0, 1.0}, std::vector<double>{0.5}),
      ConfigError);
}

TEST(CmfsdTest, EmptyTorrentRhsInjectsArrivalsOnly) {
  const CmfsdModel model(kPaperParams, {0.5, 0.25}, 0.0);
  std::vector<double> state(model.state_size(), 0.0);
  std::vector<double> dstate(model.state_size(), -1.0);
  model.rhs()(0.0, state, dstate);
  EXPECT_DOUBLE_EQ(dstate[model.x_index(1, 1)], 0.5);
  EXPECT_DOUBLE_EQ(dstate[model.x_index(2, 1)], 0.25);
  EXPECT_DOUBLE_EQ(dstate[model.x_index(2, 2)], 0.0);
  EXPECT_DOUBLE_EQ(dstate[model.y_index(1)], 0.0);
}

TEST(CmfsdTest, SingleClassDegeneratesToQiuSrikant) {
  // K = 1: every peer downloads one file at full bandwidth; the model is
  // exactly the single-torrent fluid model.
  const CmfsdModel model(kPaperParams, {2.0}, 0.5);
  const CmfsdEquilibrium eq = model.solve();
  EXPECT_NEAR(eq.metrics.download_time[0],
              single_torrent_download_time(kPaperParams), 1e-6);
  EXPECT_NEAR(eq.metrics.online_time[0], 80.0, 1e-6);
}

TEST(CmfsdTest, SeedsAreLambdaOverGammaAtSteadyState) {
  const auto rates = paper_rates(0.6);
  const CmfsdModel model(kPaperParams, rates, 0.2);
  const CmfsdEquilibrium eq = model.solve();
  for (unsigned i = 1; i <= 10; ++i) {
    EXPECT_NEAR(eq.state[model.y_index(i)],
                rates[i - 1] / kPaperParams.gamma,
                1e-6 * (1.0 + rates[i - 1] / kPaperParams.gamma))
        << "class " << i;
  }
}

TEST(CmfsdTest, StageThroughputEqualsArrivalRate) {
  // Flow conservation: out(i, j) = lambda_i for every stage j at the
  // steady state. out(i,j) is recovered from the rhs structure:
  // dx^{i,1} = lambda_i - out(i,1) = 0 etc.
  const auto rates = paper_rates(0.8);
  const CmfsdModel model(kPaperParams, rates, 0.4);
  const CmfsdEquilibrium eq = model.solve();
  std::vector<double> dstate(model.state_size());
  model.rhs()(0.0, eq.state, dstate);
  // All derivatives vanish at equilibrium, which together with the chain
  // structure implies equal throughput through every stage.
  for (const double d : dstate) EXPECT_NEAR(d, 0.0, 1e-7);
  // Seed balance: gamma y_i = lambda_i.
  for (unsigned i = 1; i <= 10; ++i) {
    EXPECT_NEAR(kPaperParams.gamma * eq.state[model.y_index(i)],
                rates[i - 1], 1e-7);
  }
}

TEST(CmfsdTest, RhoOneMatchesMfcdDownloadTimePerFile) {
  // The analytic identity documented in cmfsd.h, for several p.
  for (const double p : {0.1, 0.4, 0.9, 1.0}) {
    const CorrelationModel corr(10, p, 1.0);
    const CmfsdModel model(kPaperParams, corr.system_entry_rates(), 1.0);
    const CmfsdEquilibrium eq = model.solve();
    const double mfcd_a = mfcd_download_time_per_file(kPaperParams, corr);
    const double avg_download = average_download_time_per_file(
        eq.metrics, corr.system_entry_rates());
    EXPECT_NEAR(avg_download, mfcd_a, 1e-4 * mfcd_a) << "p=" << p;
  }
}

TEST(CmfsdTest, RhoZeroBeatsRhoOne) {
  // The paper's headline: donating all finished-file bandwidth minimises
  // the average online time, dramatically so at high correlation.
  const auto rates = paper_rates(0.9);
  const CmfsdEquilibrium eq0 =
      CmfsdModel(kPaperParams, rates, 0.0).solve();
  const CmfsdEquilibrium eq1 =
      CmfsdModel(kPaperParams, rates, 1.0).solve();
  const double t0 = average_online_time_per_file(eq0.metrics, rates);
  const double t1 = average_online_time_per_file(eq1.metrics, rates);
  EXPECT_LT(t0, 0.6 * t1);  // roughly 52 vs 98 at p = 0.9
}

TEST(CmfsdTest, VirtualSeedBandwidthPositiveOnlyWhenRhoBelowOne) {
  const auto rates = paper_rates(0.9);
  const CmfsdEquilibrium eq0 =
      CmfsdModel(kPaperParams, rates, 0.0).solve();
  const CmfsdEquilibrium eq1 =
      CmfsdModel(kPaperParams, rates, 1.0).solve();
  EXPECT_GT(eq0.virtual_seed_bandwidth, 0.0);
  EXPECT_NEAR(eq1.virtual_seed_bandwidth, 0.0, 1e-12);
}

TEST(CmfsdTest, NewtonFromScratchAgreesWithPoolRateRoot) {
  // Two independent numerical routes to the same fixed point.
  const auto rates = paper_rates(0.7);
  const CmfsdModel model(kPaperParams, rates, 0.3);
  const CmfsdEquilibrium via_root = model.solve();

  const math::OdeRhs rhs = model.rhs();
  const math::VectorField field = [&rhs](std::span<const double> x,
                                         std::span<double> out) {
    rhs(0.0, x, out);
  };
  // Start Newton from a deliberately different point: a uniform guess.
  std::vector<double> guess(model.state_size(), 30.0);
  math::NewtonOptions options;
  options.tol = 1e-12;
  options.max_iterations = 200;
  options.project = [](std::span<double> x) {
    for (double& v : x) v = std::max(v, 0.0);
  };
  const math::NewtonResult newton = math::newton_solve(field, guess, options);
  ASSERT_TRUE(newton.converged);
  for (std::size_t s = 0; s < model.state_size(); ++s) {
    EXPECT_NEAR(newton.x[s], via_root.state[s],
                1e-5 * (1.0 + via_root.state[s]))
        << "state " << s;
  }
}

/// solve() against the generic route: integrate the ODE from an empty
/// torrent, then polish with Newton (find_equilibrium).
void expect_root_matches_integration(const CmfsdModel& model,
                                     const std::string& label) {
  const CmfsdEquilibrium root = model.solve();
  math::EquilibriumOptions options;
  options.residual_tol = 1e-9;
  options.ode.rtol = 1e-9;
  options.ode.atol = 1e-12;
  const math::EquilibriumResult oracle = math::find_equilibrium(
      model.rhs(), std::vector<double>(model.state_size(), 0.0), options);
  // The oracle resolves the state to its residual tolerance, scaled by
  // the largest population: a class entering at 1e-16 of the busiest
  // one's rate has populations below that resolution, so per-class
  // times are compared for classes above 1e-6 of the busiest.
  const double scale = 1.0 + math::norm_inf(oracle.y);
  for (std::size_t s = 0; s < model.state_size(); ++s) {
    EXPECT_NEAR(root.state[s], oracle.y[s], 1e-9 * scale)
        << label << " state " << s;
  }
  const std::vector<double>& rates = model.class_entry_rates();
  const double busiest = *std::max_element(rates.begin(), rates.end());
  const PerClassMetrics expected = model.metrics_from_state(oracle.y);
  for (unsigned i = 0; i < model.num_classes(); ++i) {
    if (rates[i] == 0.0) {
      EXPECT_TRUE(std::isnan(root.metrics.download_time[i]));
    } else if (rates[i] >= 1e-6 * busiest) {
      EXPECT_NEAR(root.metrics.download_time[i], expected.download_time[i],
                  1e-9 * expected.download_time[i])
          << label << " class " << i + 1;
    }
  }
  EXPECT_NEAR(average_download_time_per_file(root.metrics, rates),
              average_download_time_per_file(expected, rates),
              1e-9 * average_download_time_per_file(expected, rates))
      << label;
  EXPECT_LE(root.residual_inf, 1e-12) << label;
}

TEST(CmfsdTest, PoolRateRootMatchesIntegratedEquilibrium) {
  for (const unsigned k : {1u, 2u, 5u, 10u, 20u, 40u}) {
    for (const double p : {0.1, 0.5, 1.0}) {
      const auto rates = CorrelationModel(k, p, 1.0).system_entry_rates();
      for (const double rho : {0.0, 0.3, 1.0}) {
        expect_root_matches_integration(
            CmfsdModel(kPaperParams, rates, rho),
            "K=" + std::to_string(k) + " p=" + std::to_string(p) +
                " rho=" + std::to_string(rho));
      }
    }
  }
  // Per-class rho: obedient classes donate everything, cheaters none.
  for (const unsigned k : {10u, 20u}) {
    std::vector<double> rho(k, 0.0);
    for (unsigned i = k / 2; i < k; ++i) rho[i] = 1.0;
    expect_root_matches_integration(
        CmfsdModel(kPaperParams,
                   CorrelationModel(k, 0.9, 1.0).system_entry_rates(), rho),
        "cheaters K=" + std::to_string(k));
  }
}

TEST(CmfsdTest, InfeasibleRatesFailFastNamingTheCondition) {
  // mu / gamma = 2.5 seeds' worth of upload per departing peer outserves
  // the 12/7 files a K = 3, p = 0.5 visitor wants: no steady state.
  const FluidParams params{0.05, 0.5, 0.02};
  const CmfsdModel model(
      params, CorrelationModel(3, 0.5, 1.0).system_entry_rates(), 0.5);
  try {
    (void)model.solve();
    FAIL() << "expected a SolverError";
  } catch (const SolverError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sum_i i*lambda_i"), std::string::npos) << what;
    EXPECT_NE(what.find("<= mu * sum_i lambda_i / gamma"), std::string::npos)
        << what;
  }
}

TEST(CmfsdTest, PerClassRhoCheatersDegradeObedientPeers) {
  // Turn classes 6..10 into cheaters (rho = 1). Obedient multi-file peers
  // lose virtual-seed supply, so class-5 online time gets worse than in
  // the all-obedient system.
  const auto rates = paper_rates(0.9);
  std::vector<double> rho_obedient(10, 0.0);
  std::vector<double> rho_mixed(10, 0.0);
  for (unsigned i = 5; i < 10; ++i) rho_mixed[i] = 1.0;
  const CmfsdEquilibrium honest =
      CmfsdModel(kPaperParams, rates, rho_obedient).solve();
  const CmfsdEquilibrium mixed =
      CmfsdModel(kPaperParams, rates, rho_mixed).solve();
  EXPECT_GT(mixed.metrics.online_time[4], honest.metrics.online_time[4]);
  // ... but cheaters do better than they would obeying in that system:
  // their download time per file drops below the obedient equilibrium's.
  EXPECT_GT(mixed.metrics.download_per_file[9],
            honest.metrics.download_per_file[9]);
}

TEST(CmfsdTest, MetricsFromStateValidatesSize) {
  const CmfsdModel model(kPaperParams, paper_rates(0.5), 0.5);
  EXPECT_THROW((void)model.metrics_from_state(std::vector<double>(3, 0.0)),
               ConfigError);
}

TEST(CmfsdTest, ZeroRateClassHasNaNMetrics) {
  // p = 1 concentrates everything in class K.
  const auto rates = paper_rates(1.0);
  const CmfsdEquilibrium eq = CmfsdModel(kPaperParams, rates, 0.0).solve();
  for (unsigned i = 0; i < 9; ++i) {
    EXPECT_TRUE(std::isnan(eq.metrics.online_time[i])) << "class " << i + 1;
  }
  EXPECT_FALSE(std::isnan(eq.metrics.online_time[9]));
}

}  // namespace
}  // namespace btmf::fluid
