#include "btmf/model/wire.h"

#include <gtest/gtest.h>

#include <string>

#include "btmf/fluid/demand.h"
#include "btmf/fluid/schemes.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"

namespace btmf::model {
namespace {

/// A spec exercising every fingerprint section: per-class rho, Adapt,
/// cheaters/aborts, a fault of each kind, non-default solver tolerances.
ScenarioSpec loaded_spec() {
  ScenarioSpec spec;
  spec.num_files = 7;
  spec.correlation = 0.35;
  spec.visit_rate = 1.25;
  spec.fluid.mu = 0.031;
  spec.fluid.eta = 0.77;
  spec.fluid.gamma = 0.043;
  spec.scheme = fluid::SchemeKind::kCmfsd;
  spec.rho = 0.5;
  spec.rho_per_class = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  spec.solver.rtol = 1e-8;
  spec.solver.atol = 1e-11;
  spec.solver.max_steps = 250'000;
  spec.transient_samples = 333;
  spec.horizon = 4321.5;
  spec.warmup = 1000.25;
  spec.seed = 18'446'744'073'709'551'615u;  // 2^64 - 1
  spec.cheater_fraction = 0.125;
  spec.abort_rate = 0.0625;
  spec.adapt.enabled = true;
  spec.adapt.initial_rho = 0.05;
  spec.adapt.consecutive = 3;
  spec.faults.tracker_outages.push_back({500.0, 200.0, true, 2.5});
  spec.faults.seed_failures.push_back({100.0, 50.0});
  spec.faults.churn_bursts.push_back({1200.0, 0.5, 0.75, 1.5});
  spec.faults.bandwidth_faults.push_back({300.0, 100.0, 0.5});
  spec.num_chunks = 48;
  spec.chunk_policy = sim::PiecePolicy::kModeSuppression;
  spec.chunk_suppression = 0.85;
  return spec;
}

TEST(ModelWireTest, EncodeIsTheFingerprint) {
  const ScenarioSpec spec = loaded_spec();
  EXPECT_EQ(encode_spec(spec), spec.fingerprint());
}

TEST(ModelWireTest, DecodeInvertsEncodeOnALoadedSpec) {
  const ScenarioSpec spec = loaded_spec();
  const ScenarioSpec decoded = decode_spec(encode_spec(spec));
  // Fingerprint equality IS the contract: every result-affecting field
  // round-tripped bit-exactly.
  EXPECT_EQ(decoded.fingerprint(), spec.fingerprint());
  EXPECT_EQ(decoded.seed, spec.seed);
  EXPECT_EQ(decoded.rho_per_class, spec.rho_per_class);
  EXPECT_TRUE(decoded.adapt.enabled);
  ASSERT_EQ(decoded.faults.tracker_outages.size(), 1u);
  EXPECT_EQ(decoded.faults.tracker_outages[0].readmit_rate, 2.5);
  ASSERT_EQ(decoded.faults.churn_bursts.size(), 1u);
  EXPECT_EQ(decoded.faults.churn_bursts[0].progress_loss, 0.75);
}

TEST(ModelWireTest, DecodeInvertsEncodeOnTheDefaultSpec) {
  const ScenarioSpec spec;
  EXPECT_EQ(decode_spec(encode_spec(spec)).fingerprint(),
            spec.fingerprint());
}

TEST(ModelWireTest, ExecutionKnobsAreExcludedBothWays) {
  ScenarioSpec spec;
  spec.shards = 8;
  spec.kernel_threads = 4;
  const ScenarioSpec decoded = decode_spec(encode_spec(spec));
  // The serving process decides its own execution configuration.
  EXPECT_EQ(decoded.shards, 1u);
  EXPECT_EQ(decoded.kernel_threads, 1u);
  EXPECT_EQ(decoded.fingerprint(), spec.fingerprint());
}

TEST(ModelWireTest, RejectsGarbage) {
  EXPECT_THROW(decode_spec(""), ConfigError);
  EXPECT_THROW(decode_spec("not a spec"), ConfigError);
  EXPECT_THROW(decode_spec("k=10"), ConfigError);  // missing keys
}

TEST(ModelWireTest, RejectsUnknownAndDuplicateKeys) {
  const std::string wire = encode_spec(ScenarioSpec{});
  EXPECT_THROW(decode_spec(wire + ";mystery=1"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";k=10"), ConfigError);
  // The default spec as library version 1.0.3 encoded it, with its
  // solver= key and six ode= fields.
  EXPECT_THROW(
      decode_spec(
          "k=10;p=0.5;lambda0=1;mu=0.02;eta=0.5;gamma=0.05;scheme=CMFSD;"
          "rho=0;rho_per_class=;solver=1e-09,2000,1.5,40,1,1;"
          "ode=1e-09,1e-12,0,0,1000000,0;samples=200;horizon=6000;"
          "warmup=1500;seed=42;cheaters=0;theta=0;"
          "adapt=0,0,20,-0.005,0.005,0.1,0.1,2;faults=;chunks=32;"
          "piece=rarest-first;suppress=0.9"),
      ConfigError);
}

TEST(ModelWireTest, DemandKeysRoundTripOnTheWire) {
  ScenarioSpec spec = loaded_spec();
  spec.arrival = fluid::parse_arrival("diurnal,0.6,400,25");
  spec.bandwidth_classes = fluid::parse_classes("2,0.5,0|1,1.5,12.5");
  spec.epidemic_replications = 16;
  const std::string wire = encode_spec(spec);
  EXPECT_NE(wire.find(";arrival=diurnal,"), std::string::npos);
  EXPECT_NE(wire.find(";classes="), std::string::npos);
  EXPECT_NE(wire.find(";ereps=16"), std::string::npos);
  const ScenarioSpec decoded = decode_spec(wire);
  EXPECT_EQ(decoded.fingerprint(), spec.fingerprint());
  EXPECT_EQ(decoded.arrival.kind, fluid::ArrivalKind::kDiurnal);
  EXPECT_EQ(decoded.arrival.amplitude, 0.6);
  ASSERT_EQ(decoded.bandwidth_classes.size(), 2u);
  EXPECT_EQ(decoded.bandwidth_classes[1].download_cap, 12.5);
  EXPECT_EQ(decoded.epidemic_replications, 16u);
}

TEST(ModelWireTest, RejectsWhitespacePaddedNumbers) {
  // Every field away from its default, so each padding below lands in a
  // field the encoder wrote.
  ScenarioSpec spec = loaded_spec();
  spec.arrival = fluid::parse_arrival("diurnal,0.6,400,25");
  spec.bandwidth_classes = fluid::parse_classes("2,0.5,0|1,1.5,12.5");
  spec.epidemic_replications = 16;
  const std::string wire = encode_spec(spec);
  EXPECT_EQ(decode_spec(wire).fingerprint(), spec.fingerprint());
  const auto padded = [&wire](const std::string& field,
                              const std::string& with) {
    std::string out = wire;
    const std::size_t at = out.find(field);
    EXPECT_NE(at, std::string::npos) << field;
    return at == std::string::npos ? out
                                   : out.replace(at, field.size(), with);
  };
  // The number parsers trim, so each of these decoded to `spec` before.
  EXPECT_THROW(decode_spec(padded(";p=0.35;", ";p=0.35 ;")), ConfigError);
  EXPECT_THROW(decode_spec(padded("k=7;", "k= 7;")), ConfigError);
  EXPECT_THROW(decode_spec(padded(";ereps=16", ";ereps=\t16")), ConfigError);
  EXPECT_THROW(decode_spec(padded("diurnal,0.6,", "diurnal, 0.6,")),
               ConfigError);
  EXPECT_THROW(decode_spec(padded("tracker(500,", "tracker( 500,")),
               ConfigError);
  EXPECT_THROW(decode_spec(wire + "\n"), ConfigError);
}

TEST(ModelWireTest, HomogeneousSpecsOmitDemandKeysFromTheWire) {
  // Pre-demand-model fingerprints must stay byte-identical, so the
  // homogeneous defaults never appear on the wire.
  const std::string wire = encode_spec(ScenarioSpec{});
  EXPECT_EQ(wire.find("arrival="), std::string::npos);
  EXPECT_EQ(wire.find("classes="), std::string::npos);
  EXPECT_EQ(wire.find("ereps="), std::string::npos);
}

TEST(ModelWireTest, RejectsNonCanonicalDemandKeys) {
  // A wire that spells out a homogeneous default is not one our encoder
  // produced; accepting it would let two wires name the same spec.
  const std::string wire = encode_spec(ScenarioSpec{});
  EXPECT_THROW(decode_spec(wire + ";arrival=poisson"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";classes="), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";ereps=8"), ConfigError);
}

TEST(ModelWireTest, RejectsMalformedArrivalOnTheWire) {
  const std::string wire = encode_spec(ScenarioSpec{});
  // Unknown kind, wrong arity, NaN / out-of-domain parameters.
  EXPECT_THROW(decode_spec(wire + ";arrival=bursty,1,2"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";arrival=diurnal,0.5"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";arrival=diurnal,nan,400,0"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";arrival=diurnal,-0.5,400,0"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";arrival=diurnal,0.5,400,0junk"),
               ConfigError);
  EXPECT_THROW(decode_spec(wire + ";arrival=flash,0,50,0.5,0,1"),
               ConfigError);  // boost < 1
  EXPECT_THROW(decode_spec(wire + ";arrival=flash,0,50,2,0,0"),
               ConfigError);  // zero pulses
}

TEST(ModelWireTest, RejectsMalformedClassesOnTheWire) {
  const std::string wire = encode_spec(ScenarioSpec{});
  EXPECT_THROW(decode_spec(wire + ";classes=1,1"), ConfigError);  // arity
  EXPECT_THROW(decode_spec(wire + ";classes=nan,1,0"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";classes=1,-2,0"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";classes=1,1,0|"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";classes=1,1,0junk"), ConfigError);
  EXPECT_THROW(decode_spec(wire + ";ereps=0"), ConfigError);
}

TEST(ModelWireTest, RejectsOutOfRangeValues) {
  ScenarioSpec spec;
  std::string wire = encode_spec(spec);
  const std::string from = "p=" + util::format_double_exact(
                                      spec.correlation);
  const std::size_t at = wire.find(from);
  ASSERT_NE(at, std::string::npos);
  wire.replace(at, from.size(), "p=2.5");  // validate() must refuse
  EXPECT_THROW(decode_spec(wire), ConfigError);
}

/// `wire` with the value of `key` replaced by `value`.
std::string with_value(const std::string& wire, const std::string& key,
                       const std::string& value) {
  std::string out = ";" + wire;
  const std::size_t at = out.find(";" + key + "=");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + key.size() + 2;
  out.replace(begin, out.find(';', begin) - begin, value);
  return out.substr(1);
}

// Counts the spec stores as `unsigned` must not wrap: 2^32 + 1 would
// otherwise decode as 1 and share that spec's fingerprint and cache entry.
TEST(ModelWireTest, RejectsFileCountsAboveUintMax) {
  const std::string wire = encode_spec(ScenarioSpec{});
  EXPECT_THROW(decode_spec(with_value(wire, "k", "4294967297")), ConfigError);
  EXPECT_EQ(decode_spec(with_value(wire, "k", "3")).num_files, 3u);
}

TEST(ModelWireTest, RejectsChunkCountsAboveUintMax) {
  const std::string wire = encode_spec(ScenarioSpec{});
  EXPECT_THROW(decode_spec(with_value(wire, "chunks", "4294967328")),
               ConfigError);
}

TEST(ModelWireTest, RejectsTransientSampleCountsAboveTheBound) {
  // The default K = 20 CMFSD spec at 10^7 samples would have the
  // fluid-transient backend allocate about 18 GB before its first step.
  ScenarioSpec spec;
  spec.num_files = 20;
  const std::string wire = encode_spec(spec);
  EXPECT_THROW(decode_spec(with_value(wire, "samples", "10000000")),
               ConfigError);
  const std::string bound =
      std::to_string(ScenarioSpec::kMaxTransientSamples);
  EXPECT_EQ(decode_spec(with_value(wire, "samples", bound)).transient_samples,
            ScenarioSpec::kMaxTransientSamples);
}

TEST(ModelWireTest, RejectsFileCountsAboveTheBound) {
  // k=100000 used to decode, and fluid-transient's state allocation then
  // let std::bad_alloc escape Backend::evaluate under a memory limit.
  const std::string wire = encode_spec(ScenarioSpec{});
  EXPECT_THROW(decode_spec(with_value(wire, "k", "100000")), ConfigError);
  const std::string bound = std::to_string(ScenarioSpec::kMaxFiles);
  EXPECT_EQ(decode_spec(with_value(wire, "k", bound)).num_files,
            ScenarioSpec::kMaxFiles);
}

TEST(ModelWireTest, RejectsEpidemicReplicationsAboveTheBound) {
  // ereps=100000000 used to decode, and stochastic-epidemic's rows then
  // let std::bad_alloc escape Backend::evaluate under a memory limit.
  ScenarioSpec spec;
  spec.scheme = fluid::SchemeKind::kMtcd;
  const std::string wire = encode_spec(spec);
  EXPECT_THROW(decode_spec(wire + ";ereps=100000000"), ConfigError);
  const unsigned bound = ScenarioSpec::kMaxEpidemicReplications;
  const ScenarioSpec decoded =
      decode_spec(wire + ";ereps=" + std::to_string(bound));
  EXPECT_EQ(decoded.epidemic_replications, bound);
  EXPECT_EQ(encode_spec(decoded), wire + ";ereps=" + std::to_string(bound));
}

TEST(ModelWireTest, RejectsEpidemicReplicationsAboveUintMax) {
  const std::string wire = encode_spec(ScenarioSpec{});
  EXPECT_THROW(decode_spec(wire + ";ereps=4294967297"), ConfigError);
}

TEST(ModelWireTest, RejectsAdaptConsecutiveAboveUintMax) {
  ScenarioSpec spec;
  spec.adapt.enabled = true;
  const std::string wire = encode_spec(spec);
  const std::size_t at = wire.find(";adapt=");
  ASSERT_NE(at, std::string::npos);
  const std::string adapt =
      wire.substr(at + 7, wire.find(';', at + 1) - at - 7);
  const std::string head = adapt.substr(0, adapt.rfind(',') + 1);
  EXPECT_NO_THROW(decode_spec(with_value(wire, "adapt", head + "3")));
  EXPECT_THROW(decode_spec(with_value(wire, "adapt", head + "4294967298")),
               ConfigError);
}

}  // namespace
}  // namespace btmf::model
