#include "btmf/fluid/cmfsd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "btmf/fluid/correlation.h"
#include "btmf/fluid/demand.h"
#include "btmf/fluid/mfcd.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/fluid/transient.h"
#include "btmf/math/equilibrium.h"
#include "btmf/math/newton.h"
#include "btmf/math/vec.h"
#include "btmf/model/backend.h"
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

TEST(CmfsdTest, LumpedLayoutKeepsOneChainPerRho) {
  // phi_1, one tail chain per distinct rho among the entering classes
  // 2..K (as long as its largest class needs), then one seed row per
  // class.
  const auto rates = paper_rates(0.5);
  EXPECT_EQ(CmfsdModel(kPaperParams, rates, 0.5).lumped_size(), 20u);
  std::vector<double> split(10, 0.2);
  for (unsigned i = 5; i < 10; ++i) split[i] = 1.0;
  // Classes 2..5 share a chain of 4 stages, classes 6..10 one of 9.
  EXPECT_EQ(CmfsdModel(kPaperParams, rates, split).lumped_size(),
            1u + 4u + 9u + 10u);
  std::vector<double> distinct(10);
  for (unsigned i = 0; i < 10; ++i) distinct[i] = 0.1 * i;
  EXPECT_EQ(CmfsdModel(kPaperParams, rates, distinct).lumped_size(),
            1u + 9u * 10u / 2u + 10u);
  EXPECT_EQ(CmfsdModel(kPaperParams, {2.0}, 0.5).lumped_size(), 2u);
  // Classes that never enter join no chain.
  EXPECT_EQ(CmfsdModel(kPaperParams, {0.5, 0.0, 0.0, 0.0}, distinct.front())
                .lumped_size(),
            1u + 4u);
  EXPECT_EQ(
      CmfsdModel(kPaperParams, {0.0, 0.3, 0.0, 0.2},
                 std::vector<double>{0.0, 0.4, 0.4, 0.7})
          .lumped_size(),
      1u + 1u + 3u + 4u);
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

/// The packed right-hand side under dopri5 alone: transients that cap
/// every step at 10, inside dopri5's stability bound, never ask for a
/// stage solve.
math::OdeSystem packed_dopri5(const CmfsdModel& model,
                              const ArrivalProcess& arrival) {
  math::OdeSystem ode;
  ode.rhs = model.rhs(arrival);
  ode.stages = []() -> std::unique_ptr<math::StageSolver> {
    throw std::logic_error("the packed reference has no stage solves");
  };
  ode.autonomous = arrival.homogeneous();
  return ode;
}

TEST(CmfsdTest, LumpedChainsMatchThePackedSystem) {
  // From the empty torrent x^{i,j} = lambda_i phi_j holds exactly, so
  // the lumped system's readouts are the packed system's up to the
  // integrators' error, here at rtol 1e-12 on both sides.
  const auto rates = [](double p) {
    return CorrelationModel(20, p, 1.0).system_entry_rates();
  };
  std::vector<double> split(20, 0.2);  // Adapt: obedient, then cheaters
  for (unsigned i = 10; i < 20; ++i) split[i] = 1.0;
  std::vector<double> distinct(20);
  for (unsigned i = 0; i < 20; ++i) distinct[i] = 0.05 * i;
  struct Case {
    std::string name;
    CmfsdModel model;
    ArrivalProcess arrival;
  };
  std::vector<Case> cases;
  for (const double p : {0.15, 0.5, 0.95}) {
    cases.push_back({"rho 0.3, p " + std::to_string(p),
                     CmfsdModel(kPaperParams, rates(p), 0.3), {}});
  }
  cases.push_back(
      {"obedient/cheater", CmfsdModel(kPaperParams, rates(0.7), split), {}});
  cases.push_back(
      {"all distinct", CmfsdModel(kPaperParams, rates(0.5), distinct), {}});
  cases.push_back({"diurnal", CmfsdModel(kPaperParams, rates(0.5), 0.3),
                   parse_arrival("diurnal,0.5,8000,0")});
  cases.push_back({"flash", CmfsdModel(kPaperParams, rates(0.5), 0.3),
                   parse_arrival("flash,12000.5,30,20,1000,2")});
  cases.push_back({"K = 1", CmfsdModel(kPaperParams, {1.0}, 0.5), {}});
  cases.push_back({"idle class",
                   CmfsdModel(kPaperParams, {0.3, 0.2, 0.0, 0.4, 0.1}, 0.5),
                   {}});
  for (const Case& c : cases) {
    TransientOptions options;
    options.t_end = 20000.0;
    options.ode.rtol = 1e-12;
    options.ode.atol = 1e-15;
    options.breakpoints = c.arrival.breakpoints(0.0, options.t_end);
    TransientOptions dopri5_only = options;
    dopri5_only.ode.max_dt = 10.0;
    const TransientSeries packed = sample_trajectory(
        packed_dopri5(c.model, c.arrival),
        std::vector<double>(c.model.state_size(), 0.0), dopri5_only);
    const TransientSeries lumped = sample_trajectory(
        c.model.system(c.arrival),
        std::vector<double>(c.model.lumped_size(), 0.0), options);
    const auto expect_close = [&](double got, double want,
                                  const std::string& what) {
      EXPECT_LE(std::abs(got - want), 1e-10 * (1.0 + std::abs(want)))
          << c.name << " " << what << ": " << got << " vs " << want;
    };
    // A packed class entering at 1e-6 of the busiest one's rate or less
    // has populations below atol's resolution; its lumped profile does
    // not, so only the others are compared.
    const std::vector<double>& lambda = c.model.class_entry_rates();
    const double busiest = *std::max_element(lambda.begin(), lambda.end());
    const PerClassMetrics want =
        c.model.metrics_from_state(packed.states.back());
    const std::vector<double> got =
        c.model.lumped_download_times(lumped.states.back());
    ASSERT_EQ(got.size(), want.download_time.size()) << c.name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (lambda[i] == 0.0) {
        EXPECT_TRUE(std::isnan(got[i])) << c.name << " class " << i + 1;
      } else if (lambda[i] > 1e-6 * busiest) {
        expect_close(got[i], want.download_time[i],
                     "class " + std::to_string(i + 1));
      }
    }
    // The expansion of the last state, population by population.
    const std::vector<double> expanded =
        c.model.packed_state(lumped.states.back());
    ASSERT_EQ(expanded.size(), c.model.state_size()) << c.name;
    for (unsigned i = 1; i <= c.model.num_classes(); ++i) {
      if (!(lambda[i - 1] > 1e-6 * busiest)) continue;
      const std::string label = " of class " + std::to_string(i);
      for (unsigned j = 1; j <= i; ++j) {
        const std::size_t v = c.model.x_index(i, j);
        expect_close(expanded[v], packed.states.back()[v],
                     "stage " + std::to_string(j) + label);
      }
      const std::size_t v = c.model.y_index(i);
      expect_close(expanded[v], packed.states.back()[v], "seeds" + label);
    }
    const std::size_t stages = c.model.state_size() - c.model.num_classes();
    for (std::size_t s = 0; s < packed.states.size(); ++s) {
      const std::vector<double>& x = packed.states[s];
      double downloaders = 0.0;
      double seeds = 0.0;
      for (std::size_t v = 0; v < x.size(); ++v) {
        (v < stages ? downloaders : seeds) += x[v];
      }
      expect_close(c.model.lumped_downloaders(lumped.states[s]), downloaders,
                   "downloaders at sample " + std::to_string(s));
      expect_close(c.model.lumped_seeds(lumped.states[s]), seeds,
                   "seeds at sample " + std::to_string(s));
    }
  }
}

TEST(CmfsdTest, AllEqualRhoPerClassIsBitIdenticalToTheScalarRho) {
  // Equal values share one chain, so the per-class form runs the scalar
  // form's arithmetic.
  model::ScenarioSpec spec;
  spec.scheme = SchemeKind::kCmfsd;
  spec.correlation = 0.7;
  spec.rho = 0.35;
  const model::Backend& backend = model::require_backend("fluid-transient");
  const model::Outcome scalar = backend.evaluate_or_throw(spec);
  spec.rho_per_class.assign(spec.num_files, 0.35);
  const model::Outcome per_class = backend.evaluate_or_throw(spec);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(per_class.avg_online_per_file),
            std::bit_cast<std::uint64_t>(scalar.avg_online_per_file));
  EXPECT_EQ(per_class.per_class.online_time, scalar.per_class.online_time);
  EXPECT_EQ(per_class.per_class.download_time,
            scalar.per_class.download_time);
  ASSERT_TRUE(per_class.trajectory && scalar.trajectory);
  EXPECT_EQ(per_class.trajectory->downloaders, scalar.trajectory->downloaders);
  EXPECT_EQ(per_class.trajectory->seeds, scalar.trajectory->seeds);
}

TEST(CmfsdTest, MetricsFromStateValidatesSize) {
  const CmfsdModel model(kPaperParams, paper_rates(0.5), 0.5);
  EXPECT_THROW((void)model.metrics_from_state(std::vector<double>(3, 0.0)),
               ConfigError);
}

TEST(CmfsdTest, LumpedReadoutsValidateSize) {
  // A packed state is not a state of system(), in any build type.
  const CmfsdModel model(kPaperParams, paper_rates(0.5), 0.5);
  const std::vector<double> packed(model.state_size(), 0.0);
  EXPECT_THROW((void)model.lumped_download_times(packed), ConfigError);
  EXPECT_THROW((void)model.lumped_downloaders(packed), ConfigError);
  EXPECT_THROW((void)model.lumped_seeds(packed), ConfigError);
  EXPECT_THROW((void)model.packed_state(packed), ConfigError);
  const std::vector<double> empty(model.lumped_size(), 0.0);
  EXPECT_EQ(model.lumped_downloaders(empty), 0.0);
  EXPECT_EQ(model.lumped_seeds(empty), 0.0);
  EXPECT_EQ(model.packed_state(empty), packed);
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
