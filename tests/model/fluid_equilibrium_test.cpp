// The paper's steady-state numbers through the fluid-equilibrium backend:
// the Sec. 4 headline values, the rho knob and its per-class override,
// the K = 1 and CMFSD(rho = 1) identities, and the shapes of Figs. 2-4
// at tighter tolerances than the reproduce claims use.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "btmf/fluid/mfcd.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/model/backend.h"
#include "btmf/util/error.h"

namespace btmf::model {
namespace {

using fluid::SchemeKind;

/// K = 10, the paper's fluid constants, lambda0 = 1.
ScenarioSpec paper_spec(SchemeKind scheme, double p, double rho = 0.0) {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.correlation = p;
  spec.rho = rho;
  return spec;
}

Outcome evaluate(const ScenarioSpec& spec) {
  return require_backend("fluid-equilibrium").evaluate_or_throw(spec);
}

Outcome evaluate(SchemeKind scheme, double p, double rho = 0.0) {
  return evaluate(paper_spec(scheme, p, rho));
}

TEST(EvaluateTest, MtsdIsEightyEverywhere) {
  for (const double p : {0.0, 0.3, 1.0}) {
    const Outcome r = evaluate(SchemeKind::kMtsd, p);
    EXPECT_NEAR(r.avg_online_per_file, 80.0, 1e-9) << "p=" << p;
    EXPECT_NEAR(r.avg_download_per_file, 60.0, 1e-9) << "p=" << p;
  }
}

TEST(EvaluateTest, MtcdPaperNumbers) {
  // p = 1: A = 96, avg online per file = 96 + 20/10 = 98.
  const Outcome r = evaluate(SchemeKind::kMtcd, 1.0);
  EXPECT_NEAR(r.avg_online_per_file, 98.0, 1e-9);
  EXPECT_NEAR(r.avg_download_per_file, 96.0, 1e-9);
}

TEST(EvaluateTest, MtcdEqualsMtsdInTheZeroCorrelationLimit) {
  EXPECT_NEAR(evaluate(SchemeKind::kMtcd, 0.0).avg_online_per_file,
              evaluate(SchemeKind::kMtsd, 0.0).avg_online_per_file, 1e-9);
}

TEST(EvaluateTest, MfcdEqualsMtcd) {
  EXPECT_NEAR(evaluate(SchemeKind::kMtcd, 0.6).avg_online_per_file,
              evaluate(SchemeKind::kMfcd, 0.6).avg_online_per_file, 1e-9);
}

TEST(EvaluateTest, CmfsdUsesRhoOption) {
  const Outcome generous = evaluate(SchemeKind::kCmfsd, 0.9, 0.0);
  const Outcome selfish = evaluate(SchemeKind::kCmfsd, 0.9, 1.0);
  EXPECT_LT(generous.avg_online_per_file, selfish.avg_online_per_file);
  EXPECT_DOUBLE_EQ(generous.rho, 0.0);
  EXPECT_DOUBLE_EQ(selfish.rho, 1.0);
}

TEST(EvaluateTest, CmfsdAtZeroCorrelationThrows) {
  EXPECT_THROW((void)evaluate(SchemeKind::kCmfsd, 0.0), ConfigError);
}

TEST(EvaluateTest, RhoIsNaNForSchemesWithoutTheKnob) {
  EXPECT_TRUE(std::isnan(evaluate(SchemeKind::kMtsd, 0.5).rho));
}

TEST(EvaluateTest, PerClassRhoOverridesUniform) {
  ScenarioSpec spec = paper_spec(SchemeKind::kCmfsd, 0.9, 0.0);
  spec.rho_per_class.assign(10, 1.0);  // the per-class rho wins
  EXPECT_GT(evaluate(spec).avg_online_per_file,
            evaluate(SchemeKind::kCmfsd, 0.9, 0.0).avg_online_per_file);
}

TEST(EvaluateTest, ClassEntryRatesAreReported) {
  const Outcome r = evaluate(SchemeKind::kMtcd, 0.5);
  ASSERT_EQ(r.class_entry_rates.size(), 10u);
  double total = 0.0;
  for (const double rate : r.class_entry_rates) total += rate;
  EXPECT_NEAR(total, 1.0 - std::pow(0.5, 10), 1e-9);
}

TEST(EvaluateTest, InvalidScenarioThrows) {
  ScenarioSpec spec = paper_spec(SchemeKind::kMtsd, 0.5);
  spec.visit_rate = -1.0;
  EXPECT_THROW((void)evaluate(spec), ConfigError);
  EXPECT_THROW((void)evaluate(SchemeKind::kMtsd, 2.0), ConfigError);
}

TEST(EvaluateTest, AveragePerUserAtLeastPerFile) {
  // Per-user online time aggregates >= 1 file, so it dominates per-file.
  const Outcome r = evaluate(SchemeKind::kMtsd, 0.7);
  EXPECT_GE(r.avg_online_per_user, r.avg_online_per_file - 1e-9);
}

TEST(ValidationTest, AllChecksTight) {
  // (a) With K = 1 every scheme reproduces Qiu-Srikant's T + 1/gamma = 80.
  for (const SchemeKind scheme : {SchemeKind::kMtcd, SchemeKind::kMtsd,
                                  SchemeKind::kMfcd, SchemeKind::kCmfsd}) {
    ScenarioSpec single = paper_spec(scheme, 1.0);
    single.num_files = 1;
    const double expected =
        fluid::single_torrent_download_time(single.fluid) +
        1.0 / single.fluid.gamma;
    EXPECT_NEAR(expected, 80.0, 1e-9);
    EXPECT_NEAR(evaluate(single).avg_online_per_file, expected,
                1e-3 * expected + 1e-6)
        << fluid::to_string(scheme);
  }
  // (b) CMFSD(rho = 1) reproduces MFCD's per-file download time.
  for (const double p : {0.2, 0.7, 1.0}) {
    const ScenarioSpec spec = paper_spec(SchemeKind::kCmfsd, p, 1.0);
    const double mfcd = fluid::mfcd_download_time_per_file(
        spec.fluid, spec.correlation_model());
    EXPECT_NEAR(evaluate(spec).avg_download_per_file, mfcd,
                1e-3 * mfcd + 1e-6)
        << "p=" << p;
  }
}

TEST(Fig2Test, ShapeMatchesPaper) {
  const std::vector<double> ps{0.0, 0.1, 0.5, 1.0};
  std::vector<double> mtcd;
  for (const double p : ps) {
    EXPECT_NEAR(evaluate(SchemeKind::kMtsd, p).avg_online_per_file, 80.0,
                1e-6);
    mtcd.push_back(evaluate(SchemeKind::kMtcd, p).avg_online_per_file);
  }
  // MTCD equals MTSD at p = 0 and rises monotonically to 98 at p = 1.
  EXPECT_NEAR(mtcd.front(), 80.0, 1e-6);
  EXPECT_NEAR(mtcd.back(), 98.0, 1e-6);
  for (std::size_t i = 1; i < mtcd.size(); ++i) {
    EXPECT_GT(mtcd[i], mtcd[i - 1]);
  }
}

TEST(Fig3Test, PerClassStructure) {
  // At p = 0.1 the single-file majority waits longer per file under MTCD
  // than under MTSD (the paper's fairness complaint); class 10 gains.
  const Outcome mtcd = evaluate(SchemeKind::kMtcd, 0.1);
  const Outcome mtsd = evaluate(SchemeKind::kMtsd, 0.1);
  EXPECT_GT(mtcd.per_class.online_per_file[0],
            mtsd.per_class.online_per_file[0]);
  EXPECT_LT(mtcd.per_class.online_per_file[9],
            mtsd.per_class.online_per_file[9]);
  // At p = 1 everyone is class 10: 96 + 2 = 98 per file under MTCD.
  EXPECT_NEAR(evaluate(SchemeKind::kMtcd, 1.0).per_class.online_per_file[9],
              98.0, 1e-6);
  // MTSD download per file is 60 in every class, populated or not.
  for (const double p : {0.1, 1.0}) {
    const Outcome r = evaluate(SchemeKind::kMtsd, p);
    for (const std::size_t i : {0ul, 2ul, 5ul, 9ul}) {
      EXPECT_NEAR(r.per_class.download_per_file[i], 60.0, 1e-6)
          << "p=" << p << " class " << i + 1;
    }
  }
}

TEST(Fig4aTest, SurfaceMonotoneInRhoAndBestAtZero) {
  std::vector<double> gains;
  for (const double p : {0.3, 0.9}) {
    std::vector<double> online;
    for (const double rho : {0.0, 0.5, 1.0}) {
      online.push_back(
          evaluate(SchemeKind::kCmfsd, p, rho).avg_online_per_file);
    }
    EXPECT_LT(online[0], online[1]) << "p=" << p;
    EXPECT_LT(online[1], online[2]) << "p=" << p;
    gains.push_back(online[2] - online[0]);
  }
  // The rho = 0 advantage grows with correlation (paper Sec. 4.2.2).
  EXPECT_GT(gains[1], gains[0]);
}

TEST(Fig4bcTest, UnfairnessPattern) {
  // p = 0.1 (Fig. 4(c)): class 1 downloads a file much faster than
  // class 10 under CMFSD, while MFCD is class-independent (fair).
  const Outcome low = evaluate(SchemeKind::kCmfsd, 0.1, 0.9);
  EXPECT_LT(low.per_class.download_per_file[0],
            low.per_class.download_per_file[9]);
  const Outcome low_mfcd = evaluate(SchemeKind::kMfcd, 0.1);
  EXPECT_NEAR(low_mfcd.per_class.download_per_file[0],
              low_mfcd.per_class.download_per_file[9], 1e-6);

  // p = 0.9 (Fig. 4(b)) with rho = 0.1: every class beats MFCD online.
  const Outcome high = evaluate(SchemeKind::kCmfsd, 0.9, 0.1);
  const Outcome high_mfcd = evaluate(SchemeKind::kMfcd, 0.9);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_LT(high.per_class.online_per_file[i],
              high_mfcd.per_class.online_per_file[i])
        << "class " << i + 1;
  }
}

}  // namespace
}  // namespace btmf::model
