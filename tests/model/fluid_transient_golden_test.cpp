// Golden fluid-transient headlines.
//
// avg_online_per_file and every per-class online time of the
// fluid-transient backend at K = 20, horizon 40000 and the default
// solver (rtol 1e-9, atol 1e-12): all four schemes at p in {0.15, 0.5,
// 0.95}, CMFSD at rho in {0.05, 0.5, 1}, one diurnal and one flash-crowd
// spec, and K = 1. The literals were captured with dopri5 integrating
// the whole trajectory; the comparison is relative at 1e-9, the level
// at which the integrator choice may move them (a trajectory's samples
// are held to rtol 1e-9 either way). Every sample of the attached
// trajectory is also checked against dopri5 alone at rtol 1e-12 (CMFSD's
// on the packed system, one population per class and stage, which the
// backend's lumped system must match), and every output of each spec is
// pinned bit for bit by one FNV-1a checksum.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "btmf/fluid/cmfsd.h"
#include "btmf/fluid/demand.h"
#include "btmf/fluid/mtcd.h"
#include "btmf/fluid/schemes.h"
#include "btmf/fluid/single_torrent.h"
#include "btmf/fluid/transient.h"
#include "btmf/model/backend.h"
#include "btmf/util/strings.h"

namespace btmf::model {
namespace {

using fluid::SchemeKind;

constexpr double kRelTol = 1e-9;

struct GoldenCase {
  std::string name;
  ScenarioSpec spec;
};

ScenarioSpec base_spec(SchemeKind scheme, double p) {
  ScenarioSpec spec;
  spec.num_files = 20;
  spec.correlation = p;
  spec.scheme = scheme;
  spec.horizon = 40000.0;
  spec.warmup = 5000.0;
  return spec;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const double p : {0.15, 0.5, 0.95}) {
    for (const SchemeKind scheme :
         {SchemeKind::kMtcd, SchemeKind::kMtsd, SchemeKind::kMfcd}) {
      cases.push_back({std::string(fluid::to_string(scheme)) + "/p" +
                           util::format_double(p, 3),
                       base_spec(scheme, p)});
    }
    for (const double rho : {0.05, 0.5, 1.0}) {
      ScenarioSpec spec = base_spec(SchemeKind::kCmfsd, p);
      spec.rho = rho;
      cases.push_back({"CMFSD/p" + util::format_double(p, 3) + "/rho" +
                           util::format_double(rho, 3),
                       spec});
    }
  }
  // Time-varying demand: a slow diurnal swing (the readout averages the
  // samples after the warm-up) and two flash pulses in the stiff tail.
  ScenarioSpec diurnal = base_spec(SchemeKind::kMtcd, 0.5);
  diurnal.arrival = fluid::parse_arrival("diurnal,0.5,8000,0");
  cases.push_back({"MTCD/p0.5/diurnal", diurnal});
  ScenarioSpec pulse = base_spec(SchemeKind::kCmfsd, 0.5);
  pulse.rho = 0.3;
  pulse.arrival = fluid::parse_arrival("flash,12000.5,30,20,1000,2");
  cases.push_back({"CMFSD/p0.5/rho0.3/flash", pulse});
  for (const SchemeKind scheme : {SchemeKind::kMtcd, SchemeKind::kCmfsd}) {
    ScenarioSpec single = base_spec(scheme, 0.5);
    single.num_files = 1;
    single.rho = 0.5;
    cases.push_back({std::string(fluid::to_string(scheme)) + "/K1", single});
  }
  return cases;
}

struct Golden {
  const char* name;
  double avg_online_per_file;
  std::vector<double> online;
};

// clang-format off
const Golden kGolden[] = {
    {"MTCD/p0.15",
     93.591730207230043,
     {107.1834604144602, 194.36692082892037, 281.55038124338057,
      368.73384165784074, 455.9173020723008, 543.10076248676103,
      630.28422290122114, 717.46768331568114, 804.65114373014137,
      891.83460414460149, 979.01806455906137, 1066.2015249735214,
      1153.3849853879813, 1240.5684458024355, 1327.7519062168342,
      1414.9353666308698, 1502.1188270429927, 1589.30228744687,
      1676.4857478206138, 1763.6692080987004}},
    {"MTSD/p0.15",
     80.00000000423465,
     {80.000000004234622, 160.00000000846924, 240.00000001270388,
      320.00000001693849, 400.00000002117309, 480.00000002540776,
      560.00000002964237, 640.00000003387697, 720.00000003811158,
      800.00000004234619, 880.00000004658079, 960.00000005081552,
      1040.0000000550501, 1120.0000000592847, 1200.0000000635193,
      1280.0000000677539, 1360.0000000719886, 1440.0000000762232,
      1520.0000000804578, 1600.0000000846924}},
    {"MFCD/p0.15",
     93.591730207230043,
     {107.1834604144602, 194.36692082892037, 281.55038124338057,
      368.73384165784074, 455.9173020723008, 543.10076248676103,
      630.28422290122114, 717.46768331568114, 804.65114373014137,
      891.83460414460149, 979.01806455906137, 1066.2015249735214,
      1153.3849853879813, 1240.5684458024355, 1327.7519062168342,
      1414.9353666308698, 1502.1188270429927, 1589.30228744687,
      1676.4857478206138, 1763.6692080987004}},
    {"CMFSD/p0.15/rho0.05",
     56.880772194869472,
     {56.919134454120346, 113.78181949574356, 170.64450453736674,
      227.50718957898997, 284.36987462061313, 341.23255966223638,
      398.09524470385958, 454.95792974548283, 511.82061478710585,
      568.6832998287291, 625.5459848703523, 682.40866991197549,
      739.27135495359857, 796.134039995222, 852.99672503684496,
      909.85941007846861, 966.72209512009158, 1023.5847801617148,
      1080.4474652033382, 1137.3101502449606}},
    {"CMFSD/p0.15/rho0.5",
     70.029910904431816,
     {71.489725119498189, 140.83135843198005, 210.17299174446188,
      279.51462505694371, 348.85625836942552, 418.19789168190749,
      487.53952499438924, 556.88115830687116, 626.22279161935307,
      695.56442493183488, 764.9060582443168, 834.2476915567986,
      903.5893248692804, 972.93095818176221, 1042.2725914942441,
      1111.614224806726, 1180.9558581192073, 1250.2974914316899,
      1319.6391247441716, 1388.9807580566535}},
    {"CMFSD/p0.15/rho1",
     93.591730207230043,
     {107.18346041446016, 194.36692082892029, 281.55038124338046,
      368.73384165784063, 455.91730207230074, 543.10076248676103,
      630.28422290122103, 717.46768331568126, 804.65114373014148,
      891.83460414460149, 979.01806455906171, 1066.2015249735218,
      1153.3849853879819, 1240.5684458024423, 1327.7519062169029,
      1414.9353666313627, 1502.1188270458226, 1589.3022874602825,
      1676.4857478747426, 1763.6692082892034}},
    {"MTCD/p0.5",
     98.000001907333711,
     {116.00000381469702, 212.00000762939402, 308.00001144409094,
      404.00001525878787, 500.00001907348462, 596.00002288818132,
      692.00002670287813, 788.00003051757437, 884.00003433227073,
      980.00003814696686, 1076.000041961662, 1172.0000457763558,
      1268.0000495910344, 1364.0000534055769, 1460.0000572191632,
      1556.0000610274974, 1652.0000648124899, 1748.0000685106595,
      1844.0000719309066, 1940.0000745678444}},
    {"MTSD/p0.5",
     79.999999998932964,
     {79.99999999893295, 159.9999999978659, 239.99999999679886,
      319.9999999957318, 399.99999999466473, 479.99999999359773,
      559.99999999253066, 639.9999999914636, 719.99999999039653,
      799.99999998932947, 879.9999999882624, 959.99999998719545,
      1039.9999999861284, 1119.9999999850613, 1199.9999999839943,
      1279.9999999829272, 1359.9999999818601, 1439.9999999807931,
      1519.999999979726, 1599.9999999786589}},
    {"MFCD/p0.5",
     98.000001907333711,
     {116.00000381469702, 212.00000762939402, 308.00001144409094,
      404.00001525878787, 500.00001907348462, 596.00002288818132,
      692.00002670287813, 788.00003051757437, 884.00003433227073,
      980.00003814696686, 1076.000041961662, 1172.0000457763558,
      1268.0000495910344, 1364.0000534055769, 1460.0000572191632,
      1556.0000610274974, 1652.0000648124899, 1748.0000685106595,
      1844.0000719309066, 1940.0000745678444}},
    {"CMFSD/p0.5/rho0.05",
     52.941646419893949,
     {55.118037948285085, 107.81786334348969, 160.51768873869432,
      213.21751413389893, 265.91733952910357, 318.61716492430816,
      371.3169903195128, 424.01681571471744, 476.71664110992202,
      529.41646650512678, 582.11629190033136, 634.81611729553583,
      687.51594269074064, 740.21576808594523, 792.91559348114993,
      845.61541887635417, 898.31524427155887, 951.01506966676402,
      1003.7148950619683, 1056.4147204571727}},
    {"CMFSD/p0.5/rho0.5",
     67.679964970358341,
     {70.398978101474313, 137.77683082183862, 205.15468354220292,
      272.53253626256725, 339.91038898293152, 407.28824170329585,
      474.66609442366013, 542.0439471440244, 609.42179986438884,
      676.79965258475329, 744.17750530511751, 811.55535802548161,
      878.93321074584571, 946.31106346621016, 1013.6889161865746,
      1081.0667689069392, 1148.4446216273034, 1215.822474347668,
      1283.2003270680323, 1350.578179788396}},
    {"CMFSD/p0.5/rho1",
     98.000001907348633,
     {116.00000381469727, 212.0000076293945, 308.0000114440918,
      404.00001525878906, 500.00001907348633, 596.00002288818359,
      692.00002670288075, 788.00003051757812, 884.00003433227539,
      980.00003814697254, 1076.0000419616699, 1172.0000457763674,
      1268.0000495910642, 1364.0000534057613, 1460.000057220459,
      1556.0000610351565, 1652.0000648498531, 1748.0000686645508,
      1844.0000724792483, 1940.0000762939453}},
    {"MTCD/p0.95",
     98.94736835173542,
     {117.89473684206871, 215.78947368413344, 313.68421052619357,
      411.57894736824812, 509.47368421029626, 607.36842105233632,
      705.26315789436705, 803.15789473638551, 901.0526315783892,
      998.9473684203731, 1096.8421052623323, 1194.7368421042565,
      1292.63157894611, 1390.5263157876664, 1488.4210526275117,
      1586.3157894585768, 1684.2105262520763, 1782.1052629098772,
      1879.9999991440955, 1977.8947342109107}},
    {"MTSD/p0.95",
     79.999999999048555,
     {79.999999999048555, 159.99999999809711, 239.99999999714566,
      319.99999999619422, 399.99999999524277, 479.99999999429133,
      559.99999999333988, 639.99999999238844, 719.99999999143699,
      799.99999999048555, 879.9999999895341, 959.99999998858266,
      1039.9999999876313, 1119.9999999866798, 1199.9999999857282,
      1279.9999999847769, 1359.9999999838255, 1439.999999982874,
      1519.9999999819224, 1599.9999999809711}},
    {"MFCD/p0.95",
     98.94736835173542,
     {117.89473684206871, 215.78947368413344, 313.68421052619357,
      411.57894736824812, 509.47368421029626, 607.36842105233632,
      705.26315789436705, 803.15789473638551, 901.0526315783892,
      998.9473684203731, 1096.8421052623323, 1194.7368421042565,
      1292.63157894611, 1390.5263157876664, 1488.4210526275117,
      1586.3157894585768, 1684.2105262520763, 1782.1052629098772,
      1879.9999991440955, 1977.8947342109107}},
    {"CMFSD/p0.95/rho0.05",
     52.147517549035932,
     {54.80581599134878, 106.80565029358954, 158.80548459583031,
      210.80531889807111, 262.80515320031191, 314.80498750255271,
      366.80482180479345, 418.80465610703425, 470.80449040927505,
      522.80432471151585, 574.80415901375648, 626.80399331599733,
      678.80382761823807, 730.80366192047882, 782.80349622271956,
      834.8033305249603, 886.8031648272015, 938.80299912944201,
      990.80283343168298, 1042.8026677339235}},
    {"CMFSD/p0.95/rho0.5",
     67.196558070028871,
     {70.203809991645741, 137.2332985104737, 204.26278702930165,
      271.29227554812957, 338.32176406695748, 405.35125258578546,
      472.38074110461338, 539.4102296234413, 606.43971814226927,
      673.46920666109713, 740.49869517992499, 807.52818369875297,
      874.55767221758106, 941.58716073640903, 1008.616649255237,
      1075.6461377740645, 1142.6756262928925, 1209.7051148117207,
      1276.7346033305485, 1343.7640918493764}},
    {"CMFSD/p0.95/rho1",
     98.94736842105263,
     {117.89473684210525, 215.78947368421052, 313.68421052631584,
      411.57894736842104, 509.4736842105263, 607.36842105263156,
      705.26315789473676, 803.15789473684208, 901.05263157894717,
      998.94736842105237, 1096.8421052631579, 1194.7368421052627,
      1292.6315789473686, 1390.526315789474, 1488.4210526315785,
      1586.3157894736846, 1684.21052631579, 1782.1052631578953,
      1879.9999999999998, 1977.8947368421054}},
    {"MTCD/p0.5/diurnal",
     98.479781333782654,
     {115.86200745706911, 211.63457227265826, 307.42946015179302,
      403.34770356080406, 499.4707242559212, 595.85520702590145,
      692.53164059379947, 789.50612252103156, 886.76449049112193,
      984.27747336409107, 1082.0057410500306, 1179.9041976546505,
      1277.9252857941165, 1376.0213357071714, 1474.1461156312989,
      1572.2557711993745, 1670.3093264483084, 1768.2688864054517,
      1866.0996465135654, 1963.7697840283706}},
    {"CMFSD/p0.5/rho0.3/flash",
     60.379088053434906,
     {63.483895536082599, 124.63418307427878, 184.50856558451798,
      244.24533259771806, 304.14193374536865, 364.10321780220545,
      424.04657662425262, 483.96300003951103, 543.87003713256138,
      603.78022091540129, 663.69759925055803, 723.62318412192531,
      783.55793412829928, 843.50262295907851, 903.45702208967862,
      963.41966977394566, 1023.3882053316954, 1083.3598961105038,
      1143.332116084355, 1203.3026904458968}},
    {"MTCD/K1",
     79.999999994615536,
     {79.999999994615536}},
    {"CMFSD/K1",
     80.00000000522158,
     {80.00000000522158}},
};
// clang-format on

void expect_close(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want), kRelTol * std::abs(want))
      << what << ": got " << util::format_double_exact(got) << ", want "
      << util::format_double_exact(want);
}

TEST(FluidTransientGoldenTest, HeadlinesMatchTheCapturedLiterals) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  const Backend& backend = require_backend("fluid-transient");
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Golden& golden = kGolden[c];
    ASSERT_EQ(cases[c].name, golden.name);
    const Outcome outcome = backend.evaluate_or_throw(cases[c].spec);
    expect_close(outcome.avg_online_per_file, golden.avg_online_per_file,
                 cases[c].name + " avg_online_per_file");
    ASSERT_EQ(outcome.per_class.online_time.size(), golden.online.size())
        << cases[c].name;
    for (std::size_t i = 0; i < golden.online.size(); ++i) {
      expect_close(outcome.per_class.online_time[i], golden.online[i],
                   cases[c].name + " class " + std::to_string(i + 1));
    }
  }
}

/// Counts the factorisations, i.e. the implicit steps attempted.
class CountingStages final : public math::StageSolver {
 public:
  CountingStages(std::unique_ptr<math::StageSolver> inner, std::size_t* count)
      : inner_(std::move(inner)), count_(count) {}
  void factor(double t, std::span<const double> y, double c) override {
    ++*count_;
    inner_->factor(t, y, c);
  }
  void solve(std::span<double> r) const override { inner_->solve(r); }

 private:
  std::unique_ptr<math::StageSolver> inner_;
  std::size_t* count_;
};

/// The spec's trajectory as the backend attaches it (total downloaders,
/// then total seeds, per sample), integrated by dopri5 alone at rtol
/// 1e-12: a max_dt of 10 keeps every step inside its stability bound, so
/// no step goes to RODAS3 (checked by counting factorisations). CMFSD's
/// reference is the packed system, one population per (class, stage).
std::vector<std::vector<double>> dopri5_reference(const ScenarioSpec& spec) {
  const fluid::CorrelationModel corr = spec.correlation_model();
  fluid::TransientOptions options;
  options.t_end = spec.horizon;
  options.samples = spec.transient_samples;
  options.ode.rtol = 1e-12;
  options.ode.atol = 1e-15;
  options.ode.max_dt = 10.0;
  options.breakpoints = spec.arrival.breakpoints(0.0, spec.horizon);
  const unsigned k = spec.num_files;
  std::size_t factors = 0;
  const auto sample = [&](math::OdeSystem system, std::size_t size,
                          const auto& downloaders, const auto& seeds) {
    system.stages = [inner = system.stages, &factors] {
      return std::make_unique<CountingStages>(inner(), &factors);
    };
    const fluid::TransientSeries series = fluid::sample_trajectory(
        system, std::vector<double>(size, 0.0), options);
    EXPECT_EQ(factors, 0u);
    return std::vector<std::vector<double>>{series.map(downloaders),
                                            series.map(seeds)};
  };
  const auto first = [](unsigned count) {
    return [count](std::span<const double> y) {
      double total = 0.0;
      for (unsigned i = 0; i < count; ++i) total += y[i];
      return total;
    };
  };
  const auto second = [](unsigned count) {
    return [count](std::span<const double> y) {
      double total = 0.0;
      for (unsigned i = 0; i < count; ++i) total += y[count + i];
      return total;
    };
  };
  switch (spec.scheme) {
    case SchemeKind::kMtcd:
    case SchemeKind::kMfcd:
      return sample(fluid::mtcd_system(spec.fluid,
                                       corr.per_torrent_entry_rates(),
                                       spec.arrival),
                    2 * k, first(k), second(k));
    case SchemeKind::kMtsd:
      return sample(fluid::single_torrent_system(
                        spec.fluid, corr.per_torrent_total_rate(),
                        spec.arrival),
                    2, first(1), second(1));
    case SchemeKind::kCmfsd: {
      // The packed right-hand side, so the reference is independent of
      // the lumped system the backend integrates. Its steps never reach
      // the stage solves (counted above), which it does not have.
      const fluid::CmfsdModel model(spec.fluid, corr.system_entry_rates(),
                                    spec.rho);
      math::OdeSystem packed;
      packed.rhs = model.rhs(spec.arrival);
      packed.stages = []() -> std::unique_ptr<math::StageSolver> {
        throw std::logic_error("the packed reference has no stage solves");
      };
      packed.autonomous = spec.arrival.homogeneous();
      return sample(
          std::move(packed), model.state_size(),
          [&](std::span<const double> y) {
            double total = 0.0;
            for (unsigned i = 1; i <= k; ++i) {
              for (unsigned j = 1; j <= i; ++j) total += y[model.x_index(i, j)];
            }
            return total;
          },
          [&](std::span<const double> y) {
            double total = 0.0;
            for (unsigned i = 1; i <= k; ++i) total += y[model.y_index(i)];
            return total;
          });
    }
  }
  return {};
}

TEST(FluidTransientGoldenTest, EverySampleMatchesATightDopri5Reference) {
  // Relative to 1 + |want|, so the empty torrent's first samples are
  // held absolutely. The bound is the worst sample of the trajectories
  // split at every sample time (4.6e-9, CMFSD p = 0.95), rounded up.
  constexpr double kSampleTol = 1e-8;
  const Backend& backend = require_backend("fluid-transient");
  for (const GoldenCase& golden : golden_cases()) {
    const Outcome outcome = backend.evaluate_or_throw(golden.spec);
    ASSERT_TRUE(outcome.trajectory.has_value()) << golden.name;
    const std::vector<std::vector<double>> want =
        dopri5_reference(golden.spec);
    const std::vector<double>* got[] = {&outcome.trajectory->downloaders,
                                        &outcome.trajectory->seeds};
    double worst = 0.0;
    for (std::size_t series = 0; series < 2; ++series) {
      ASSERT_EQ(got[series]->size(), want[series].size()) << golden.name;
      for (std::size_t s = 0; s < want[series].size(); ++s) {
        const double w = want[series][s];
        worst = std::max(worst, std::abs((*got[series])[s] - w) /
                                    (1.0 + std::abs(w)));
      }
    }
    EXPECT_LE(worst, kSampleTol) << golden.name;
  }
}

/// FNV-1a over the sizes and bit patterns of the headline, every
/// per-class online and download time and every trajectory sample.
std::uint64_t outcome_checksum(const Outcome& outcome) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  const auto series = [&mix](const std::vector<double>& values) {
    mix(values.size());
    for (const double v : values) mix(std::bit_cast<std::uint64_t>(v));
  };
  mix(std::bit_cast<std::uint64_t>(outcome.avg_online_per_file));
  series(outcome.per_class.online_time);
  series(outcome.per_class.download_time);
  series(outcome.trajectory->downloaders);
  series(outcome.trajectory->seeds);
  return h;
}

struct PinnedBits {
  const char* name;
  std::uint64_t checksum;
};

// clang-format off
const PinnedBits kPinnedBits[] = {
    {"MTCD/p0.15", 0x8b9512f7c784dd3eULL},
    {"MTSD/p0.15", 0xdeee848dde8e8a1fULL},
    {"MFCD/p0.15", 0x8b9512f7c784dd3eULL},
    {"CMFSD/p0.15/rho0.05", 0xe2fdc7b68a47994aULL},
    {"CMFSD/p0.15/rho0.5", 0xd828f05e4a0f0300ULL},
    {"CMFSD/p0.15/rho1", 0x54bca011d15b7a6aULL},
    {"MTCD/p0.5", 0x65e49e4e8d506238ULL},
    {"MTSD/p0.5", 0x45f862f1dc065d23ULL},
    {"MFCD/p0.5", 0x65e49e4e8d506238ULL},
    {"CMFSD/p0.5/rho0.05", 0x79879a2f3a786f6aULL},
    {"CMFSD/p0.5/rho0.5", 0xf32c69ba0d700c2aULL},
    {"CMFSD/p0.5/rho1", 0xc98ddbf9662e230eULL},
    {"MTCD/p0.95", 0xddd9deb0d28dc6f3ULL},
    {"MTSD/p0.95", 0x6eb2bb9f871b1ab0ULL},
    {"MFCD/p0.95", 0xddd9deb0d28dc6f3ULL},
    {"CMFSD/p0.95/rho0.05", 0x29fe22c6ece11f15ULL},
    {"CMFSD/p0.95/rho0.5", 0x685624cbfa5b5893ULL},
    {"CMFSD/p0.95/rho1", 0xc1380cca540f559aULL},
    {"MTCD/p0.5/diurnal", 0x1f9f07d800cf094aULL},
    {"CMFSD/p0.5/rho0.3/flash", 0x5620aca8167ab95aULL},
    {"MTCD/K1", 0xbd2665b0f077412aULL},
    {"CMFSD/K1", 0xacad4a8e5a6f0870ULL},
};
// clang-format on

TEST(FluidTransientGoldenTest, EveryOutputKeepsItsBits) {
  // A change to the integrators' arithmetic that keeps every number
  // within the tolerances above still fails here, unless it keeps the
  // bits: the headline, both per-class columns and every sample.
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kPinnedBits));
  const Backend& backend = require_backend("fluid-transient");
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ASSERT_EQ(cases[c].name, kPinnedBits[c].name);
    const Outcome outcome = backend.evaluate_or_throw(cases[c].spec);
    ASSERT_TRUE(outcome.trajectory.has_value()) << cases[c].name;
    const std::uint64_t got = outcome_checksum(outcome);
    std::ostringstream hex;
    hex << "0x" << std::hex << got << "ULL";
    EXPECT_EQ(got, kPinnedBits[c].checksum)
        << cases[c].name << ": " << hex.str();
  }
}

}  // namespace
}  // namespace btmf::model
