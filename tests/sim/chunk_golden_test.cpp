// Multi-file golden values for the chunk-level engine.
//
// Every ChunkSimResult field of a K > 1 matrix, captured from the engine
// before its hot state was rebuilt (flat TFT ledger, word-level piece
// scans, array-backed interest scans) and written as 17-significant-digit
// literals, which round-trip doubles exactly. Comparison is bit for bit,
// so any change to the variates drawn, their order, or the arithmetic on
// them fails here. docs/PROTOCOL.md ("The bit-identity contract") says
// what a change that must move these numbers has to do.
#include "btmf/sim/chunk_sim.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace btmf::sim {
namespace {

using fluid::SchemeKind;

ChunkSimConfig golden_base(SchemeKind scheme, PiecePolicy policy) {
  ChunkSimConfig c;
  c.num_files = 3;
  c.num_chunks = 16;
  c.correlation = 0.5;
  c.entry_rate = 2.0 * (1.0 - 0.125);
  c.scheme = scheme;
  c.rho = scheme == SchemeKind::kCmfsd ? 0.5 : 0.0;
  c.policy = policy;
  c.horizon = 900.0;
  c.warmup = 250.0;
  c.seed = 11;
  return c;
}

struct GoldenCase {
  std::string name;
  ChunkSimConfig config;
};

/// K = 3 x the four schemes x the three piece policies, then one run
/// each for two bitmap words per file, bandwidth classes with download
/// caps, a flash pulse train and a flash crowd.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const SchemeKind scheme : {SchemeKind::kMtcd, SchemeKind::kMtsd,
                                  SchemeKind::kMfcd, SchemeKind::kCmfsd}) {
    for (const PiecePolicy policy :
         {PiecePolicy::kRarestFirst, PiecePolicy::kRandom,
          PiecePolicy::kModeSuppression}) {
      cases.push_back({"K3/" + std::string(fluid::to_string(scheme)) + "/" +
                           to_string(policy),
                       golden_base(scheme, policy)});
    }
  }
  {
    ChunkSimConfig c =
        golden_base(SchemeKind::kMfcd, PiecePolicy::kRarestFirst);
    c.num_files = 2;
    c.num_chunks = 70;  // two bitmap words per file
    c.entry_rate = 1.5 * (1.0 - 0.25);
    c.horizon = 400.0;
    c.warmup = 100.0;
    c.seed = 5;
    cases.push_back({"K2/C70/MFCD", c});
  }
  {
    // Upload turns and receive tokens; the last class is capped below
    // one chunk per slot.
    ChunkSimConfig c =
        golden_base(SchemeKind::kCmfsd, PiecePolicy::kRarestFirst);
    c.rho = 0.3;
    c.bandwidth_classes = {{2.0, 1.0, 0.0}, {1.0, 2.0, 0.03},
                           {1.0, 0.5, 0.015}};
    c.seed = 23;
    cases.push_back({"K3/CMFSD/bandwidth-classes", c});
  }
  {
    ChunkSimConfig c =
        golden_base(SchemeKind::kMtsd, PiecePolicy::kModeSuppression);
    c.arrival.kind = fluid::ArrivalKind::kFlashCrowd;
    c.arrival.t0 = 150.0;
    c.arrival.width = 40.0;
    c.arrival.boost = 4.0;
    c.arrival.interval = 200.0;
    c.arrival.pulses = 3;
    c.seed = 31;
    cases.push_back({"K3/MTSD/flash-pulses", c});
  }
  {
    ChunkSimConfig c =
        golden_base(SchemeKind::kMtcd, PiecePolicy::kRarestFirst);
    c.flash_crowd = 10;
    c.warmup = 0.0;
    c.seed = 47;
    cases.push_back({"K3/MTCD/flash-crowd", c});
  }
  return cases;
}

struct GoldenFile {
  double emergent_eta, avg_downloaders, avg_seeds;
  std::size_t completions;
  double mean_download_time;
};

struct GoldenClass {
  std::size_t completed_users;
  double mean_download_time, mean_online_time;
};

struct Golden {
  const char* name;
  std::size_t completed_peers;
  double mean_download_time, ci_download_time, mean_online_time;
  double avg_downloaders, avg_seeds, peak_downloaders;
  double emergent_eta, downloader_upload_share, seed_upload_share,
      idle_fraction;
  double fluid_prediction, avg_download_per_file, avg_online_per_file;
  std::vector<GoldenFile> files;
  std::vector<GoldenClass> classes;
};

// clang-format off
const std::vector<Golden> kGoldens = {
    {"K3/MTCD/rarest-first",
     971, 78.46292481977342, 2.3184089722236068, 98.497470136583217,
     138, 40.67307692307692, 200,
     0.86168452943081331, 0.74369830641985035, 0.25630169358014965, 0,
     34.815525839620832, 46.826982175783648, 58.7836776291471,
     {{0.86797350690007891, 83.288461538461533, 20.514423076923077,
       544, 83.92693014705884},
      {0.85370205173955993, 83.100961538461533, 22.26923076923077,
       542, 83.002767527675275},
      {0.86321070234116037, 84.495192307692307, 20.129807692307693,
       562, 83.257339857651161}},
     {{438, 45.683504566210054, 62.899941808191357},
      {410, 93.628048780487788, 114.82738452400433},
      {123, 144.63922764227641, 170.82635232351839}}},
    {"K3/MTCD/random",
     1018, 80.629911591355636, 2.2887516881300813, 100.33524588914533,
     143.72115384615384, 38.78846153846154, 216,
     0.86644181714135815, 0.76162342666324168, 0.2383765733367583, 0,
     34.624367622258433, 47.77721187427241, 59.453597389493424,
     {{0.85671369561720934, 88.480769230769226, 19.403846153846153,
       583, 87.682246998284711},
      {0.87818548688442843, 85.40384615384616, 20.009615384615383,
       579, 84.396588946459403},
      {0.8648993815110444, 86.024038461538467, 20.307692307692307,
       583, 83.372641509433947}},
     {{447, 46.965883668903821, 62.547140852870172},
      {442, 95.192307692307764, 117.36042127434523},
      {129, 147.38372093023253, 172.94110194307234}}},
    {"K3/MTCD/mode-suppression",
     1015, 75.215517241379303, 2.3533942569622286, 94.243837884847792,
     139.17307692307693, 42.125, 326,
     0.84145084438110318, 0.73664317090611908, 0.26335682909388086,
     0.036072999409177443,
     35.65270651319549, 45.742210904733376, 57.314257311635991,
     {{0.79501048680871511, 81.5625, 23.08173076923077, 564, 74.06914893617018},
      {0.86423981143865602, 76.759615384615387, 19.096153846153847,
       548, 81.027600364963362},
      {0.8691655724006776, 78.65384615384616, 20.610576923076923,
       578, 83.023356401384049}},
     {{495, 44.627525252525288, 60.746581226961766},
      {386, 92.203691709844605, 114.46106644553504},
      {134, 139.27238805970148, 159.74601565520865}}},
    {"K3/MTSD/rarest-first",
     1024, 54.562377929687543, 1.6185957685683769, 84.401243705677416,
     97.509615384615387, 58.302884615384613, 126,
     0.87141307563356674, 0.56049218279262991, 0.43950781720737003,
     0.0013301662707838481,
     34.426841688355779, 32.073407003444316, 49.613589870616387,
     {{0.87249848392965434, 31.71153846153846, 20.990384615384617,
       600, 31.557291666666664},
      {0.8687776141384389, 32.644230769230766, 20.25, 607, 32.691515650741344},
      {0.87296983758700697, 33.153846153846153, 21.0625,
       611, 32.104132569558118}},
     {{456, 31.092379385964922, 49.075575483867631},
      {418, 64.3540669856459, 99.55424291909921},
      {150, 98.624999999999986, 149.56491729191023}}},
    {"K3/MTSD/random",
     984, 52.527947154471477, 1.5834691435653578, 83.018403813978495,
     89.524038461538467, 57.168269230769234, 119,
     0.86692444014821979, 0.5420388153918474, 0.45796118460815255, 0,
     34.605091990336369, 31.080877931449187, 49.122134307248849,
     {{0.86938902743142144, 30.846153846153847, 20.35096153846154,
       589, 31.462224108658763},
      {0.86787401574803147, 30.528846153846153, 21.745192307692307,
       593, 30.169688026981433},
      {0.86319385140905214, 28.14903846153846, 19.072115384615383,
       541, 31.613909426987082}},
     {{450, 31.152777777777779, 48.139223281445815},
      {389, 61.921593830334189, 101.25336465967504},
      {145, 93.663793103448299, 142.34413809441813}}},
    {"K3/MTSD/mode-suppression",
     998, 54.487099198396791, 1.5286071620708004, 82.554123162278856,
     95.21634615384616, 54.894230769230766, 148,
     0.86745771269881344, 0.5656898254856767, 0.43431017451432335, 0,
     34.58381839348079, 32.561751497005986, 49.334739470631227,
     {{0.87018701870187021, 30.591346153846153, 19.860576923076923,
       576, 32.0963541666667},
      {0.86645696311123821, 33.625, 17.822115384615383,
       572, 34.593531468531452},
      {0.8658498759305211, 31, 21.21153846153846, 591, 31.191835871404365}},
     {{446, 32.630325112107663, 48.348464252303309},
      {432, 65.031828703703752, 98.452656738515017},
      {120, 97.760416666666643, 152.45043456990388}}},
    {"K3/MFCD/rarest-first",
     1023, 70.301808406647154, 1.3709852437223895, 87.811876473227542,
     122.88461538461539, 34.23557692307692, 156,
     0.91615805946795537, 0.75332153771915711, 0.24667846228084286, 0,
     32.745441346029352, 41.285160734787603, 51.568053749777079,
     {{0.85398277145593671, 73.274038461538467, 27.985576923076923,
       608, 70.662006578947384},
      {0.95919136112511771, 64.86057692307692, 30.875, 579, 66.256476683937748},
      {0.94568534114492198, 66.125, 29.817307692307693,
       591, 67.243020304568489}},
     {{456, 52.796052631578945, 70.558691026975083},
      {415, 78.847891566265062, 96.682160006920071},
      {152, 99.486019736842067, 115.35322447986394}}},
    {"K3/MFCD/random",
     1049, 69.649666348903608, 1.293467784002627, 86.204769412220941,
     124.40384615384616, 33.97596153846154, 216,
     0.91752975730409758, 0.75751387913981238, 0.24248612086018762,
     0.00028707218270549584,
     32.696487237805279, 41.3015828151498, 51.118599837998723,
     {{0.9399243856332975, 69.26442307692308, 29.951923076923077,
       623, 65.599919743178248},
      {0.9180301795264707, 67.22115384615384, 28.995192307692307,
       581, 67.943201376936244},
      {0.89428895249441165, 68.432692307692307, 26.072115384615383,
       587, 69.798764906303205}},
     {{467, 54.383029978586741, 71.753475234185217},
      {444, 76.717342342342306, 92.682646890742092},
      {138, 98.573369565217405, 114.26691999685418}}},
    {"K3/MFCD/mode-suppression",
     1010, 66.290222772277275, 1.5679548100664324, 83.662932618981472,
     110.27884615384616, 38.721153846153847, 367,
     0.91206731188425894, 0.71322401390924894, 0.28677598609075106,
     0.0062673622874178467,
     32.892309163040139, 39.016972610722611, 49.242168965717532,
     {{0.91570856054140748, 61.27403846153846, 30.317307692307693,
       584, 64.067851027397253},
      {0.89779349178293522, 62.63942307692308, 30.759615384615383,
       575, 65.788043478260803},
      {0.92263684826425241, 62.197115384615387, 30.03846153846154,
       581, 65.151678141136074}},
     {{440, 50.227272727272748, 67.05468648388819},
      {434, 72.796658986175146, 91.083532042245736},
      {136, 97.495404411764682, 113.71505136710104}}},
    {"K3/CMFSD/rarest-first",
     988, 72.640435222672068, 2.1878919937135763, 88.956538982392871,
     124.72115384615384, 32.629807692307693, 159,
     0.87954664602940813, 0.5698942124162919, 0.43010578758370804, 0,
     34.108480926430516, 41.896526561587855, 51.307098957737374,
     {{0.87431616341030194, 44.51442307692308, 40.32692307692308,
       582, 44.201030927835063},
      {0.88687139812110205, 38.97596153846154, 45.932692307692307,
       594, 39.583333333333314},
      {0.87810739767179868, 41.230769230769234, 44.16346153846154,
       597, 41.724246231155817}},
     {{422, 40.173281990521353, 55.724839981888415},
      {407, 84.282862407862368, 100.33219785354437},
      {159, 129.00943396226407, 148.03756928210527}}},
    {"K3/CMFSD/random",
     1010, 67.747524752475329, 2.0278429102146713, 85.005788680722986,
     123.25, 35.03846153846154, 181,
     0.88873267724442662, 0.56507997318264536, 0.43492002681735464, 0,
     33.755932203389833, 40.392561983471076, 50.682317926523147,
     {{0.88961189867534274, 39.605769230769234, 43.168269230769234,
       569, 38.955404217926194},
      {0.89557007988380533, 43.61057692307692, 41.38942307692308,
       603, 42.459577114427837},
      {0.88071162472439746, 40.033653846153847, 43.36057692307692,
       579, 39.394430051813487}},
     {{454, 38.862885462555042, 56.971479663535298},
      {428, 81.111273364485911, 97.503427598577318},
      {128, 125.51269531249999, 142.65099834448566}}},
    {"K3/CMFSD/mode-suppression",
     1018, 69.517436149312303, 2.1113005750127196, 86.060285794866289,
     123.61057692307692, 34.379807692307693, 269,
     0.88359221122441345, 0.57166822595735067, 0.42833177404264927, 0,
     33.952313769751697, 41.433694379391099, 51.293542704434266,
     {{0.88459818100492027, 41.46153846153846, 41.408653846153847,
       598, 42.192725752508387},
      {0.87787795246255873, 42.01442307692308, 41.38942307692308,
       599, 42.388355592654406},
      {0.88835317161368088, 40.134615384615387, 43.716346153846153,
       594, 40.109427609427641}},
     {{458, 38.95332969432318, 55.838704175536613},
      {430, 84.062499999999943, 101.08218924361117},
      {130, 129.08653846153851, 142.84540809250106}}},
    {"K2/C70/MFCD",
     308, 46.978200371058016, 1.4818719322217622, 64.809778402979759,
     56.68973747016679, 25.747016706443812, 84,
     0.97356123437039532, 0.67845093149479241, 0.32154906850520759, 0,
     30.814702702702704, 35.034590107229711, 48.332716097137521,
     {{0.96798194281892658, 38.682577565632457, 21.47255369928401,
       213, 47.387659289068246},
      {0.97922144008141798, 38.274463007159902, 20.992840095465393,
       207, 46.963423050380079}},
     {{203, 39.36312456016929, 57.445142747094899},
      {105, 61.700680272109494, 79.048074004357346}}},
    {"K3/CMFSD/bandwidth-classes",
     992, 61.274571572580655, 3.9358855299173534, 77.112534361120126,
     116.74038461538461, 32.740384615384613, 138,
     0.88305034875464161, 0.50908002394731589, 0.49091997605268411,
     0.043367590441948517,
     33.973147785184331, 36.485219087635052, 45.915746750438807,
     {{0.86728151075972482, 37.51442307692308, 40.091346153846153,
       572, 36.691433566433517},
      {0.90291909339690379, 38.807692307692307, 37.692307692307693,
       570, 36.896929824561404},
      {0.87909497996694308, 40.418269230769234, 37.365384615384613,
       580, 39.342672413793103}},
     {{448, 41.106305803571423, 56.934362064074669},
      {414, 76.909722222222243, 92.415580858704288},
      {130, 80.985576923076934, 97.915303123246787}}},
    {"K3/MTSD/flash-pulses",
     1414, 53.883044554455424, 1.2796551393940021, 83.44559723164781,
     130.56730769230768, 82.980769230769226, 349,
     0.86158774578393105, 0.54726821966507622, 0.45273178033492373,
     0.0015179468018028538,
     34.819436728065305, 32.175095016891895, 49.827734157749269,
     {{0.86536300292200496, 42.778846153846153, 29.798076923076923,
       822, 31.59975669099757},
      {0.8613252760991873, 46.144230769230766, 27.658653846153847,
       813, 32.960485854858511},
      {0.85800046178711609, 41.644230769230766, 29.52403846153846,
       814, 32.182893120393111}},
     {{638, 34.076214733542301, 51.214381336089822},
      {598, 63.931856187291004, 99.824810853580985},
      {178, 91.116573033707837, 143.94417023979381}}},
    {"K3/MTCD/flash-crowd",
     1406, 80.040896159317143, 2.0147338567881494, 99.55898395764919,
     132.92361111111111, 34.260416666666664, 171,
     0.86081340252701499, 0.76098935347944252, 0.23901064652055751,
     0.0036270588527563164,
     34.850758494154036, 47.564454775993241, 59.163115572466047,
     {{0.85074755112557099, 80.135416666666671, 18.09375,
       782, 87.468030690537063},
      {0.86569518827577041, 81.819444444444443, 18.149305555555557,
       808, 85.365099009901044},
      {0.86576924710172065, 80.486111111111114, 18.350694444444443,
       803, 84.670765877957564}},
     {{648, 46.773726851851848, 63.347590731761791},
      {556, 94.879721223021647, 116.93215731769503},
      {202, 145.91584158415839, 167.90303555264643}}}
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

void expect_golden(const ChunkSimResult& r, const Golden& g) {
  SCOPED_TRACE(g.name);
  EXPECT_EQ(r.completed_peers, g.completed_peers);
  EXPECT_TRUE(same_bits(r.mean_download_time, g.mean_download_time));
  EXPECT_TRUE(same_bits(r.ci_download_time, g.ci_download_time));
  EXPECT_TRUE(same_bits(r.mean_online_time, g.mean_online_time));
  EXPECT_TRUE(same_bits(r.avg_downloaders, g.avg_downloaders));
  EXPECT_TRUE(same_bits(r.avg_seeds, g.avg_seeds));
  EXPECT_TRUE(same_bits(r.peak_downloaders, g.peak_downloaders));
  EXPECT_TRUE(same_bits(r.emergent_eta, g.emergent_eta));
  EXPECT_TRUE(
      same_bits(r.downloader_upload_share, g.downloader_upload_share));
  EXPECT_TRUE(same_bits(r.seed_upload_share, g.seed_upload_share));
  EXPECT_TRUE(same_bits(r.idle_fraction, g.idle_fraction));
  EXPECT_TRUE(same_bits(r.fluid_prediction, g.fluid_prediction));
  EXPECT_TRUE(same_bits(r.avg_download_per_file, g.avg_download_per_file));
  EXPECT_TRUE(same_bits(r.avg_online_per_file, g.avg_online_per_file));
  ASSERT_EQ(r.files.size(), g.files.size());
  for (std::size_t f = 0; f < g.files.size(); ++f) {
    SCOPED_TRACE("file " + std::to_string(f + 1));
    EXPECT_TRUE(same_bits(r.files[f].emergent_eta, g.files[f].emergent_eta));
    EXPECT_TRUE(
        same_bits(r.files[f].avg_downloaders, g.files[f].avg_downloaders));
    EXPECT_TRUE(same_bits(r.files[f].avg_seeds, g.files[f].avg_seeds));
    EXPECT_EQ(r.files[f].completions, g.files[f].completions);
    EXPECT_TRUE(same_bits(r.files[f].mean_download_time,
                          g.files[f].mean_download_time));
  }
  ASSERT_EQ(r.classes.size(), g.classes.size());
  for (std::size_t i = 0; i < g.classes.size(); ++i) {
    SCOPED_TRACE("class " + std::to_string(i + 1));
    EXPECT_EQ(r.classes[i].completed_users, g.classes[i].completed_users);
    EXPECT_TRUE(same_bits(r.classes[i].mean_download_time,
                          g.classes[i].mean_download_time));
    EXPECT_TRUE(same_bits(r.classes[i].mean_online_time,
                          g.classes[i].mean_online_time));
  }
}

TEST(ChunkSimGoldenTest, MultiFileMatrixIsBitIdenticalToThePreRebuildEngine) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), kGoldens.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(cases[i].name, kGoldens[i].name);
    expect_golden(run_chunk_sim(cases[i].config), kGoldens[i]);
  }
}

TEST(ChunkSimGoldenTest, ParanoidAuditorPassesTheGoldenMatrixUnchanged) {
  // The auditor checks every invariant after every slot and draws no
  // randomness, so the audited matrix must still match bit for bit.
  const std::vector<GoldenCase> cases = golden_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ChunkSimConfig c = cases[i].config;
    c.paranoid = true;
    expect_golden(run_chunk_sim(c), kGoldens[i]);
  }
}

}  // namespace
}  // namespace btmf::sim
