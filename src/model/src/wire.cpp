#include "btmf/model/wire.h"

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "btmf/util/error.h"
#include "btmf/util/strings.h"

namespace btmf::model {

namespace {

[[noreturn]] void malformed(const std::string& why) {
  throw ConfigError("spec wire decode: " + why);
}

double to_double(std::string_view s, std::string_view what) {
  return util::parse_double(s, what);
}

bool to_bool(std::string_view s, std::string_view what) {
  if (s == "0") return false;
  if (s == "1") return true;
  malformed(std::string(what) + " must be 0 or 1, got '" + std::string(s) +
            "'");
}

long long to_count(std::string_view s, std::string_view what,
                   long long min_value) {
  const long long v = util::parse_int(s, what);
  if (v < min_value) {
    malformed(std::string(what) + " must be >= " + std::to_string(min_value));
  }
  return v;
}

/// A count the spec stores as `unsigned`: a value above UINT_MAX is
/// malformed rather than wrapped by the cast into a valid-looking count.
unsigned to_unsigned(std::string_view s, std::string_view what,
                     long long min_value) {
  const long long v = to_count(s, what, min_value);
  if (v > std::numeric_limits<unsigned>::max()) {
    malformed(std::string(what) + " must be <= " +
              std::to_string(std::numeric_limits<unsigned>::max()));
  }
  return static_cast<unsigned>(v);
}

/// The full unsigned 64-bit range: a seed of 2^63 or more must decode
/// to what encode_spec wrote.
std::uint64_t to_u64(std::string_view s, std::string_view what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    malformed(std::string(what) + " must be an integer in [0, 2^64), got '" +
              std::string(s) + "'");
  }
  return v;
}

std::vector<std::string> fields_of(std::string_view value,
                                   std::string_view what, std::size_t n) {
  const std::vector<std::string> fields = util::split(value, ',');
  if (fields.size() != n) {
    malformed(std::string(what) + " expects " + std::to_string(n) +
              " comma-separated fields, got " +
              std::to_string(fields.size()));
  }
  return fields;
}

std::vector<double> double_list(std::string_view value,
                                std::string_view what) {
  std::vector<double> out;
  if (value.empty()) return out;
  for (const std::string& field : util::split(value, ',')) {
    out.push_back(to_double(field, what));
  }
  return out;
}

/// Parses the fault fingerprint: a concatenation of "name(a,b,...)"
/// segments, in declaration order — exactly what fault_fingerprint in
/// spec.cpp emits.
sim::FaultPlan parse_faults(std::string_view value) {
  sim::FaultPlan plan;
  std::string_view rest = value;
  while (!rest.empty()) {
    const std::size_t open = rest.find('(');
    const std::size_t close = rest.find(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      malformed("faults segment '" + std::string(rest) +
                "' is not name(args)");
    }
    const std::string_view name = rest.substr(0, open);
    const std::string_view args = rest.substr(open + 1, close - open - 1);
    if (name == "tracker") {
      const auto f = fields_of(args, "faults tracker", 4);
      sim::TrackerOutageFault fault;
      fault.start = to_double(f[0], "tracker start");
      fault.duration = to_double(f[1], "tracker duration");
      fault.drop = to_bool(f[2], "tracker drop");
      fault.readmit_rate = to_double(f[3], "tracker readmit_rate");
      plan.tracker_outages.push_back(fault);
    } else if (name == "seed") {
      const auto f = fields_of(args, "faults seed", 2);
      sim::SeedFailureFault fault;
      fault.start = to_double(f[0], "seed start");
      fault.duration = to_double(f[1], "seed duration");
      plan.seed_failures.push_back(fault);
    } else if (name == "churn") {
      const auto f = fields_of(args, "faults churn", 4);
      sim::ChurnBurstFault fault;
      fault.time = to_double(f[0], "churn time");
      fault.kill_fraction = to_double(f[1], "churn kill_fraction");
      fault.progress_loss = to_double(f[2], "churn progress_loss");
      fault.backoff_rate = to_double(f[3], "churn backoff_rate");
      plan.churn_bursts.push_back(fault);
    } else if (name == "bw") {
      const auto f = fields_of(args, "faults bw", 3);
      sim::BandwidthFault fault;
      fault.start = to_double(f[0], "bw start");
      fault.duration = to_double(f[1], "bw duration");
      fault.scale = to_double(f[2], "bw scale");
      plan.bandwidth_faults.push_back(fault);
    } else {
      malformed("unknown fault kind '" + std::string(name) + "'");
    }
    rest.remove_prefix(close + 1);
  }
  return plan;
}

}  // namespace

std::string encode_spec(const ScenarioSpec& spec) {
  return spec.fingerprint();
}

ScenarioSpec decode_spec(std::string_view wire) {
  // The wire is canonical and whitespace-free. The number parsers trim
  // their input, as the CLI grammars want, so a padded field would decode
  // to the spec of the unpadded wire: two wires would name one spec.
  if (const std::size_t at = wire.find_first_of(" \t\n\v\f\r");
      at != std::string_view::npos) {
    malformed("whitespace at byte " + std::to_string(at));
  }
  // Gather key=value tokens; duplicates and unknowns are structural errors.
  std::map<std::string, std::string> fields;
  for (const std::string& token : util::split(wire, ';')) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      malformed("token '" + token + "' is not key=value");
    }
    if (!fields.emplace(token.substr(0, eq), token.substr(eq + 1)).second) {
      malformed("duplicate key '" + token.substr(0, eq) + "'");
    }
  }
  const auto take = [&fields](const char* key) {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      malformed("missing key '" + std::string(key) + "'");
    }
    std::string value = it->second;
    fields.erase(it);
    return value;
  };

  ScenarioSpec spec;
  spec.num_files = to_unsigned(take("k"), "k", 1);
  spec.correlation = to_double(take("p"), "p");
  spec.visit_rate = to_double(take("lambda0"), "lambda0");
  spec.fluid.mu = to_double(take("mu"), "mu");
  spec.fluid.eta = to_double(take("eta"), "eta");
  spec.fluid.gamma = to_double(take("gamma"), "gamma");
  spec.scheme = fluid::scheme_from_string(take("scheme"));
  spec.rho = to_double(take("rho"), "rho");
  spec.rho_per_class = double_list(take("rho_per_class"), "rho_per_class");

  {
    const auto f = fields_of(take("ode"), "ode", 3);
    spec.solver.rtol = to_double(f[0], "ode rtol");
    spec.solver.atol = to_double(f[1], "ode atol");
    spec.solver.max_steps =
        static_cast<std::size_t>(to_count(f[2], "ode max_steps", 1));
  }
  spec.transient_samples =
      static_cast<std::size_t>(to_count(take("samples"), "samples", 2));
  spec.horizon = to_double(take("horizon"), "horizon");
  spec.warmup = to_double(take("warmup"), "warmup");
  spec.seed = to_u64(take("seed"), "seed");
  spec.cheater_fraction = to_double(take("cheaters"), "cheaters");
  spec.abort_rate = to_double(take("theta"), "theta");
  {
    const auto f = fields_of(take("adapt"), "adapt", 8);
    spec.adapt.enabled = to_bool(f[0], "adapt enabled");
    spec.adapt.initial_rho = to_double(f[1], "adapt initial_rho");
    spec.adapt.period = to_double(f[2], "adapt period");
    spec.adapt.phi_lo = to_double(f[3], "adapt phi_lo");
    spec.adapt.phi_hi = to_double(f[4], "adapt phi_hi");
    spec.adapt.step_up = to_double(f[5], "adapt step_up");
    spec.adapt.step_down = to_double(f[6], "adapt step_down");
    spec.adapt.consecutive = to_unsigned(f[7], "adapt consecutive", 0);
  }
  spec.faults = parse_faults(take("faults"));
  spec.num_chunks = to_unsigned(take("chunks"), "chunks", 1);
  spec.chunk_policy = sim::piece_policy_from_string(take("piece"));
  spec.chunk_suppression = to_double(take("suppress"), "suppress");

  // Demand-model keys are optional on the wire — the encoder omits them
  // at their homogeneous defaults so pre-demand-model fingerprints stay
  // byte-identical — but when present they are parsed strictly (unknown
  // arrival kinds, non-numeric or out-of-domain fields all throw).
  const auto take_optional = [&fields](const char* key, std::string* value) {
    const auto it = fields.find(key);
    if (it == fields.end()) return false;
    *value = it->second;
    fields.erase(it);
    return true;
  };
  std::string demand;
  if (take_optional("arrival", &demand)) {
    spec.arrival = fluid::parse_arrival(demand);
    if (spec.arrival.homogeneous()) {
      malformed("arrival key present but homogeneous (non-canonical wire)");
    }
  }
  if (take_optional("classes", &demand)) {
    spec.bandwidth_classes = fluid::parse_classes(demand);
    if (spec.bandwidth_classes.empty()) {
      malformed("classes key present but empty (non-canonical wire)");
    }
  }
  if (take_optional("ereps", &demand)) {
    spec.epidemic_replications = to_unsigned(demand, "ereps", 1);
    if (spec.epidemic_replications == 8) {
      malformed("ereps key present at its default (non-canonical wire)");
    }
  }

  if (!fields.empty()) {
    malformed("unknown key '" + fields.begin()->first +
              "' (client/daemon generation mismatch?)");
  }
  spec.validate();
  return spec;
}

}  // namespace btmf::model
