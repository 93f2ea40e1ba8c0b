// Golden values for the flow-level event kernel.
//
// Every deterministic SimResult field of a K = 3 matrix: the four schemes
// under Poisson and diurnal demand, then one run each for Adapt with
// cheaters, download aborts, a churn-burst fault plan and a two-shard
// MTCD run. Scalars are 17-significant-digit literals, which round-trip
// doubles exactly; the population and rho trajectories are folded into
// one FNV-1a checksum of their bit patterns. Only wall_clock_seconds is
// left out. Comparison is bit for bit, so any change to the variates
// drawn, their order, or the arithmetic on them fails here.
#include "btmf/sim/simulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "btmf/fluid/demand.h"
#include "btmf/sim/faults.h"

namespace btmf::sim {
namespace {

using fluid::SchemeKind;

SimConfig golden_base(SchemeKind scheme) {
  SimConfig c;
  c.num_files = 3;
  c.correlation = 0.5;
  c.visit_rate = 2.0;
  c.scheme = scheme;
  c.rho = scheme == SchemeKind::kCmfsd ? 0.3 : 0.0;
  c.horizon = 2000.0;
  c.warmup = 500.0;
  c.seed = 13;
  return c;
}

struct GoldenCase {
  std::string name;
  SimConfig config;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const SchemeKind scheme : {SchemeKind::kMtcd, SchemeKind::kMtsd,
                                  SchemeKind::kMfcd, SchemeKind::kCmfsd}) {
    for (const char* arrival : {"poisson", "diurnal,0.5,400,0"}) {
      SimConfig c = golden_base(scheme);
      c.arrival = fluid::parse_arrival(arrival);
      cases.push_back({"K3/" + std::string(fluid::to_string(scheme)) + "/" +
                           arrival,
                       c});
    }
  }
  {
    SimConfig c = golden_base(SchemeKind::kCmfsd);
    c.adapt.enabled = true;
    c.cheater_fraction = 0.5;
    c.seed = 17;
    cases.push_back({"K3/CMFSD/adapt-cheaters", c});
  }
  {
    SimConfig c = golden_base(SchemeKind::kMtcd);
    c.abort_rate = 0.01;
    c.seed = 19;
    cases.push_back({"K3/MTCD/aborts", c});
  }
  {
    SimConfig c = golden_base(SchemeKind::kMtsd);
    c.faults = parse_fault_plan("churn:1200:0.4:0.5");
    c.seed = 23;
    cases.push_back({"K3/MTSD/churn-burst", c});
  }
  {
    SimConfig c = golden_base(SchemeKind::kMtcd);
    c.shards = 2;
    c.seed = 29;
    cases.push_back({"K3/MTCD/shards-2", c});
  }
  return cases;
}

/// FNV-1a over the sizes and bit patterns of every trajectory series.
std::uint64_t trajectory_checksum(const SimResult& r) {
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
  series(r.population_time);
  for (const std::vector<double>& s : r.downloaders_trajectory) series(s);
  for (const std::vector<double>& s : r.seeds_trajectory) series(s);
  series(r.rho_trajectory_time);
  series(r.rho_trajectory_mean);
  return h;
}

struct GoldenClass {
  std::size_t completed_users;
  double arrival_rate, mean_online_per_file, ci_online_per_file,
      mean_download_per_file, ci_download_per_file, avg_downloaders,
      avg_seeds, little_download_time, little_online_time, mean_final_rho;
};

struct Golden {
  const char* name;
  double avg_online_per_file, avg_download_per_file, avg_online_per_user,
      measured_time;
  std::size_t total_users, total_arrivals, censored_users, aborted_users;
  std::size_t events_processed, rate_epochs, peak_live_peers;
  std::size_t faults_injected, downloads_killed, arrivals_dropped,
      arrivals_queued, readmissions, readmission_queue_peak;
  double time_to_recover;
  std::size_t faults_unrecovered;
  std::uint64_t trajectory_checksum;
  std::vector<GoldenClass> classes;
};

// clang-format off
const std::vector<Golden> kGoldens = {
    {"K3/MTCD/poisson",
     92.209774455789216, 77.507824058560658, 154.86665157850777, 1500,
     2337, 3982, 267, 0,
     14387, 16537, 584,
     0, 0, 0, 0, 0, 0,
     0, 0, 0x2289396006e6145aULL,
     {{1060, 0.748, 96.521409526077946, 1.2421355787256951,
       76.818429188672241, 0.22485738939332195, 57.888699243940685,
       15.391265569434678, 77.391309149653324, 97.967867397560639,
       0},
      {966, 0.73266666666666669, 91.360253182723113, 0.66290976126791601,
       77.77239603871233, 0.14058949312339158, 224.12744172191108,
       29.296655714600998, 76.476606593008782, 86.473190663050076,
       0},
      {311, 0.25533333333333336, 89.070376733450516, 0.94300158209548157,
       77.743199724614882, 0.13874400062592243, 174.48161582855963,
       15.146788758900296, 75.927596095978942, 82.51888798409918,
       0}}},
    {"K3/MTCD/diurnal,0.5,400,0",
     92.106160338219794, 77.530517881130436, 155.19830902793876, 1500,
     2419, 4001, 169, 0,
     14919, 16955, 787,
     0, 0, 0, 0, 0, 0,
     0, 0, 0x5aa05c93a8c7bdc4ULL,
     {{1095, 0.7593333333333333, 98.42667100952518, 1.2648534887884175,
       78.130122326386171, 0.48129766981457367, 60.615580398490323,
       16.010499375910165, 79.827366635413071, 100.91230874591812,
       0},
      {991, 0.70866666666666667, 91.227178464122758, 0.80501607920018847,
       77.627660608471444, 0.41264652466018537, 229.01248961942525,
       30.394385782740546, 80.789918727454818, 91.512303175740513,
       0},
      {333, 0.25733333333333336, 86.922159226488844, 1.0299286956582996,
       76.680564174279013, 0.55470261512573971, 181.8433991443182,
       15.331185197956685, 78.51614816248626, 85.13583089044684,
       0}}},
    {"K3/MTSD/poisson",
     79.999026683206509, 60.441899929037795, 134.84684421979884, 1500,
     2376, 3974, 233, 0,
     15107, 16759, 285,
     0, 0, 0, 0, 0, 0,
     0, 0, 0x19f165f10e765b07ULL,
     {{1075, 0.75266666666666671, 79.951864587799918, 1.2828086716623575,
       60.56494105579398, 0.55094230841133551, 45.775067367247949,
       14.738479120308099, 60.81718427889453, 80.398866015353477,
       0},
      {973, 0.73199999999999998, 80.56631887619568, 1.0240881444785472,
       60.516687246972189, 0.42612246754461319, 87.25479932154208,
       28.952562702297378, 59.600272760616178, 79.376613404261931,
       0},
      {328, 0.25466666666666665, 78.928649289919392, 1.3388020600874333,
       60.159577437205932, 0.60139672076524475, 46.191056626436065,
       14.65652294235149, 60.459498202141447, 79.643428754957526,
       0}}},
    {"K3/MTSD/diurnal,0.5,400,0",
     78.859379543562312, 58.644407988064245, 132.84624084477858, 1500,
     2454, 4003, 157, 0,
     15521, 17154, 390,
     0, 0, 0, 0, 0, 0,
     0, 0, 0x4769cb07b1bbee5dULL,
     {{1099, 0.76733333333333331, 80.369596371357218, 1.5636056189359744,
       60.184021843097803, 0.86484802380534365, 47.041656193326588,
       16.157301209245468, 61.305372971320487, 82.361803739233778,
       0},
      {1030, 0.72799999999999998, 79.528404392754084, 1.1101663021440296,
       59.054480518003899, 0.70126280929179652, 89.536285725655446,
       31.91356125773207, 61.494701734653468, 83.413356444634289,
       0},
      {325, 0.24533333333333332, 75.743564689120575, 1.6009656975580635,
       56.042577179492667, 0.98873871144803438, 43.642513056675185,
       15.836090147596721, 59.296892740047809, 80.813319571021609,
       0}}},
    {"K3/MFCD/poisson",
     88.404736385197467, 76.872637900576478, 149.47823747573466, 1500,
     2358, 3982, 273, 0,
     32374, 16498, 587,
     0, 0, 0, 0, 0, 0,
     0, 0, 0x21d699b6c5bbec5eULL,
     {{1030, 0.73599999999999999, 96.93801217715135, 1.2057837437005543,
       77.276471820933452, 0.22642079976204418, 56.572917836210237,
       14.522229108071762, 76.865377494850861, 96.596667043861402,
       0},
      {1027, 0.77733333333333332, 86.89332463937717, 0.61492095275833381,
       76.775091083024847, 0.13027707040939787, 237.58723524142434,
       31.540793816826596, 76.410989035621043, 86.554897853211074,
       0},
      {301, 0.24066666666666667, 82.109238777447814, 0.64139836578172293,
       76.633891749173955, 0.16353897015973928, 164.50895762240026,
       12.371458395915894, 75.950580619760046, 81.66224192904717,
       0}}},
    {"K3/MFCD/diurnal,0.5,400,0",
     87.802553664854486, 75.94801411604405, 148.29041575186218, 1500,
     2353, 3972, 169, 0,
     32344, 16693, 783,
     0, 0, 0, 0, 0, 0,
     0, 0, 0x33171cc79c9e43c9ULL,
     {{1060, 0.73133333333333328, 98.339978746454165, 1.398851823139752,
       77.671696809580055, 0.49202050904163375, 58.345725770639497,
       15.881192048915771, 79.779934964411353, 101.49532974415033,
       0},
      {965, 0.70466666666666666, 85.873086460462247, 0.7693004773450377,
       75.809277380105485, 0.43968023699933922, 220.88965477280004,
       30.026492016310169, 78.366717634626312, 89.019446590270888,
       0},
      {328, 0.24533333333333332, 80.235684882315439, 0.88519725061277299,
       74.363317210772408, 0.55940042683765767, 174.44957385124496,
       14.332376553664036, 79.007959171759509, 85.499071741353717,
       0}}},
    {"K3/CMFSD/poisson",
     67.803380750661603, 56.430712388202316, 115.33865413714693, 1500,
     2325, 3901, 195, 0,
     12628, 23001, 266,
     0, 0, 0, 0, 0, 0,
     0, 0, 0xeebf9da2a3c122dbULL,
     {{1007, 0.69999999999999996, 66.757565259369585, 1.2141700134849009,
       47.199894801236489, 0.16869574928698003, 32.83290141845616,
       13.755040008433845, 46.904144883508806, 66.554202038414303,
       0},
      {1006, 0.74133333333333329, 68.152382534489107, 0.6387823366657579,
       58.490013476387553, 0.1747144279618647, 86.21240942588625,
       14.29543801191234, 58.146858875372921, 67.788566167579987,
       0},
      {312, 0.23866666666666667, 68.178321574027279, 0.7934006577134497,
       61.935113585473758, 0.22801377875067305, 45.567549522027711,
       4.7530360123622479, 63.641828941379487, 70.280147394399393,
       0}}},
    {"K3/CMFSD/diurnal,0.5,400,0",
     67.520413072485951, 55.194872168566384, 114.69518138628791, 1500,
     2489, 4041, 127, 0,
     13340, 24201, 380,
     0, 0, 0, 0, 0, 0,
     0, 0, 0x69cd2700989540f0ULL,
     {{1123, 0.77866666666666662, 69.14992209773385, 1.2973141497392298,
       49.213161106896415, 0.63170295986415792, 39.137923759661206,
       16.163336702011762, 50.262744554359429, 71.020454360025226,
       0},
      {993, 0.69866666666666666, 68.596528078827959, 1.0654164209659682,
       57.840235050470064, 0.83956319039692318, 84.827356182973304,
       15.942700728412611, 60.706600321784329, 72.115975843071993,
       0},
      {373, 0.26666666666666666, 63.975191412121191, 1.4422559538491715,
       56.502978369455299, 1.2157368189422737, 47.868960095399807,
       6.4424365914141219, 59.83620011924976, 67.889245858517413,
       0}}},
    {"K3/CMFSD/adapt-cheaters",
     70.472234567444673, 58.789756419389356, 119.16596527240112, 1500,
     2346, 3915, 185, 0,
     12908, 63365, 286,
     0, 0, 0, 0, 0, 0,
     0, 0, 0x4e8862ffbe3157e2ULL,
     {{1039, 0.71733333333333338, 69.465702181144991, 1.1509297570462695,
       50.617714358094084, 0.14717853830948507, 36.626676949362995,
       14.194377759114422, 51.059493888517181, 70.847195225572605,
       0},
      {993, 0.73399999999999999, 72.2580379702096, 0.95237788740888651,
       61.87166929614358, 0.7309932556828127, 92.242009413112712,
       15.269195282996295, 62.835156275962341, 73.236515460564718,
       0.18003992015968065},
      {314, 0.23599999999999999, 67.817437955421411, 1.4646168112657689,
       61.305757192693491, 1.3594670841855037, 44.594130350528282,
       4.7019599470673015, 62.986059817130347, 69.627246183044619,
       0.37266187050359717}}},
    {"K3/MTCD/aborts",
     106.53149285682973, 88.432853517586807, 114.32089233453341, 1500,
     465, 3973, 133, 1971,
     10489, 12293, 297,
     0, 0, 0, 0, 0, 0,
     0, 0, 0xf74ec7ba5130b468ULL,
     {{431, 0.73266666666666669, 107.03220340376646, 1.7960855455647322,
       88.269708934547694, 0.36451201785771953, 42.989456783807093,
       5.8816589427947061, 58.675327730400944, 66.703069690539309,
       0},
      {34, 0.72999999999999998, 103.35787159609828, 4.3772110631458379,
       89.466902271849392, 0.59087263596005635, 124.28051796561606,
       5.5217817057646901, 42.56182122110139, 44.452842353212588,
       0},
      {0, 0.25, 0, 0,
       0, 0, 69.973610637974204,
       0.95875177658874389, 31.099382505766314, 31.525494406472419,
       0}}},
    {"K3/MTSD/churn-burst",
     80.386993405710911, 60.994076495984622, 134.92206901595839, 1500,
     2385, 4029, 245, 0,
     15530, 17250, 285,
     1, 70, 0, 0, 70, 70,
     3.0715830867879959, 0, 0xede93a1c7495f38eULL,
     {{1071, 0.76200000000000001, 80.57104162305609, 1.3391602145987933,
       60.762864785148587, 0.6181932997465448, 45.996758871377118,
       15.092469424630712, 60.363200618605141, 80.169590939642816,
       0},
      {1010, 0.78533333333333333, 79.952216691354181, 0.95437615325231584,
       60.908629200203102, 0.45007889514156185, 94.072343416400898,
       29.395849414592821, 59.893257692954734, 78.608781513790561,
       0},
      {304, 0.25266666666666665, 81.133850118675412, 1.4793641129640309,
       61.454856408028469, 0.68516490374132277, 44.821190968057664,
       14.471986167142495, 59.130858796909848, 78.223188832717895,
       0}}},
    {"K3/MTCD/shards-2",
     92.271858951777347, 78.526316819156563, 154.96006487998048, 1500,
     2280, 3931, 285, 0,
     14268, 16433, 614,
     0, 0, 0, 0, 0, 0,
     0, 0, 0xbbca2ada20418221ULL,
     {{1033, 0.7426666666666667, 97.148642696376967, 1.1620929241606575,
       77.491410782786247, 0.21569999778061821, 57.435574274744354,
       14.606010267064967, 77.336949202977138, 97.003928916260307,
       0},
      {945, 0.71999999999999997, 91.339275215797585, 0.65604312544191123,
       78.853949644993818, 0.12538740832591402, 223.54838700013721,
       27.222619536867061, 77.620967708380974, 87.073266158682046,
       0},
      {302, 0.24733333333333332, 88.656920378741603, 0.78413300903627314,
       79.022820014231556, 0.14021074352077373, 171.79665891982387,
       14.341835886904933, 77.177295112229956, 83.620168376787419,
       0}}},
};
// clang-format on

/// Bit identity, NaN and signed zero included.
::testing::AssertionResult same_bits(double actual, double expected) {
  if (std::bit_cast<std::uint64_t>(actual) ==
      std::bit_cast<std::uint64_t>(expected)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << ::testing::PrintToString(actual) << " vs golden "
         << ::testing::PrintToString(expected);
}

void expect_golden(const SimResult& r, const Golden& g) {
  SCOPED_TRACE(g.name);
  EXPECT_TRUE(same_bits(r.avg_online_per_file, g.avg_online_per_file));
  EXPECT_TRUE(same_bits(r.avg_download_per_file, g.avg_download_per_file));
  EXPECT_TRUE(same_bits(r.avg_online_per_user, g.avg_online_per_user));
  EXPECT_TRUE(same_bits(r.measured_time, g.measured_time));
  EXPECT_EQ(r.total_users, g.total_users);
  EXPECT_EQ(r.total_arrivals, g.total_arrivals);
  EXPECT_EQ(r.censored_users, g.censored_users);
  EXPECT_EQ(r.aborted_users, g.aborted_users);
  EXPECT_EQ(r.events_processed, g.events_processed);
  EXPECT_EQ(r.rate_epochs, g.rate_epochs);
  EXPECT_EQ(r.peak_live_peers, g.peak_live_peers);
  EXPECT_EQ(r.faults_injected, g.faults_injected);
  EXPECT_EQ(r.downloads_killed, g.downloads_killed);
  EXPECT_EQ(r.arrivals_dropped, g.arrivals_dropped);
  EXPECT_EQ(r.arrivals_queued, g.arrivals_queued);
  EXPECT_EQ(r.readmissions, g.readmissions);
  EXPECT_EQ(r.readmission_queue_peak, g.readmission_queue_peak);
  EXPECT_TRUE(same_bits(r.time_to_recover, g.time_to_recover));
  EXPECT_EQ(r.faults_unrecovered, g.faults_unrecovered);
  EXPECT_EQ(trajectory_checksum(r), g.trajectory_checksum);
  ASSERT_EQ(r.classes.size(), g.classes.size());
  for (std::size_t i = 0; i < g.classes.size(); ++i) {
    SCOPED_TRACE("class " + std::to_string(i + 1));
    const PerClassResult& c = r.classes[i];
    const GoldenClass& e = g.classes[i];
    EXPECT_EQ(c.completed_users, e.completed_users);
    EXPECT_TRUE(same_bits(c.arrival_rate, e.arrival_rate));
    EXPECT_TRUE(same_bits(c.mean_online_per_file, e.mean_online_per_file));
    EXPECT_TRUE(same_bits(c.ci_online_per_file, e.ci_online_per_file));
    EXPECT_TRUE(
        same_bits(c.mean_download_per_file, e.mean_download_per_file));
    EXPECT_TRUE(same_bits(c.ci_download_per_file, e.ci_download_per_file));
    EXPECT_TRUE(same_bits(c.avg_downloaders, e.avg_downloaders));
    EXPECT_TRUE(same_bits(c.avg_seeds, e.avg_seeds));
    EXPECT_TRUE(same_bits(c.little_download_time, e.little_download_time));
    EXPECT_TRUE(same_bits(c.little_online_time, e.little_online_time));
    EXPECT_TRUE(same_bits(c.mean_final_rho, e.mean_final_rho));
  }
}

TEST(KernelSimGoldenTest, SchemeMatrixIsBitIdenticalToTheGoldens) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), kGoldens.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].name, kGoldens[i].name);
    expect_golden(run_simulation(cases[i].config), kGoldens[i]);
  }
}

}  // namespace
}  // namespace btmf::sim
