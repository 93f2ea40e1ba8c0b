// Typed demand model: how peers arrive over time and what bandwidth they
// bring. The paper (and every layer built on it through PR 9) assumed a
// single homogeneous Poisson visit rate lambda0 and one bandwidth class;
// this header makes both assumptions explicit, typed, and overridable.
//
// ArrivalProcess describes the *time shape* of the visit rate. The base
// rate stays wherever it always lived (ScenarioSpec::visit_rate,
// SimConfig::visit_rate, the rates handed to the fluid RHS): an
// ArrivalProcess is a pure modulation of that base, so rate_at(base, t)
// with a default-constructed (homogeneous Poisson) process is exactly
// `base` for all t and every consumer degenerates to today's behaviour.
//
// BandwidthClass describes a *population* of peers sharing the same
// upload scale and download cap. An empty class vector means "one
// homogeneous class at the fluid parameters", again degenerating to the
// pre-demand-model behaviour bit for bit.
//
// Both types travel inside ScenarioSpec: they are fingerprinted
// canonically (omitted entirely when at their homogeneous defaults, so
// existing cache keys survive byte-identically) and validated up front.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace btmf::fluid {

/// The time shape of the arrival (visit) rate.
enum class ArrivalKind : std::uint8_t {
  kPoisson = 0,     ///< homogeneous: lambda(t) = base for all t
  kDiurnal = 1,     ///< sinusoid: base * (1 + amplitude*sin(2*pi*(t-phase)/period))
  kFlashCrowd = 2,  ///< pulse train: base * boost inside each pulse, base outside
};

[[nodiscard]] std::string_view to_string(ArrivalKind kind);

/// A time-varying modulation of the scalar visit rate. Default-constructed
/// it is the homogeneous Poisson process every layer assumed before the
/// demand model existed, and all consumers treat that case as "no new
/// randomness, no new arithmetic" so results stay bit-identical.
struct ArrivalProcess {
  ArrivalKind kind = ArrivalKind::kPoisson;

  // kDiurnal: lambda(t) = base * (1 + amplitude * sin(2*pi*(t - phase)/period)).
  double amplitude = 0.0;  ///< relative swing, in [0, 1] so lambda(t) >= 0
  double period = 0.0;     ///< cycle length in model time units (> 0)
  double phase = 0.0;      ///< time offset of the cycle start

  // kFlashCrowd: lambda(t) = base * boost while t lies inside one of
  // `pulses` windows [t0 + n*interval, t0 + n*interval + width), else base.
  double t0 = 0.0;       ///< start of the first pulse (>= 0)
  double width = 0.0;    ///< pulse duration (> 0)
  double boost = 1.0;    ///< rate multiplier inside a pulse (>= 1)
  double interval = 0.0; ///< pulse spacing; 0 with pulses == 1 means one pulse
  unsigned pulses = 1;   ///< number of pulses (>= 1)

  /// True when this is the plain homogeneous Poisson process (the
  /// pre-demand-model default). Consumers gate every new code path —
  /// especially new RNG draws — behind !homogeneous().
  [[nodiscard]] bool homogeneous() const { return kind == ArrivalKind::kPoisson; }

  /// Instantaneous arrival rate lambda(t) for a given base rate.
  [[nodiscard]] double rate_at(double base, double t) const;

  /// A tight upper envelope max_t lambda(t), used by thinning samplers.
  [[nodiscard]] double peak_rate(double base) const;

  /// Analytic time average of lambda over [a, b] (a < b), used by
  /// Little's-law readouts on time-varying scenarios.
  [[nodiscard]] double mean_rate(double base, double a, double b) const;

  /// The times in (a, b), ascending, at which lambda jumps: each pulse
  /// edge of a flash crowd, none for the continuous kinds. Each is the
  /// first double at which rate_at takes its new value, so an ODE
  /// integration split there sees one rate per piece.
  [[nodiscard]] std::vector<double> breakpoints(double a, double b) const;

  /// Throws btmf::ConfigError on out-of-domain parameters (NaN, negative
  /// rates, amplitude > 1, boost < 1, pulses == 0, ...).
  void validate() const;
};

/// One bandwidth class: a fraction of the arriving population whose
/// upload rate is `upload_scale * mu` and whose download rate is capped
/// at `download_cap` (0 = uncapped). Weights are relative and need not
/// sum to 1; they are normalised at the point of use.
struct BandwidthClass {
  double weight = 1.0;        ///< relative population share (> 0)
  double upload_scale = 1.0;  ///< multiplier on the fluid mu (> 0)
  double download_cap = 0.0;  ///< absolute download rate cap; 0 = unlimited
};

/// Validates a class vector (possibly empty = homogeneous).
void validate_classes(const std::vector<BandwidthClass>& classes);

/// Sum of class weights (0 for an empty vector).
[[nodiscard]] double total_weight(const std::vector<BandwidthClass>& classes);

// Canonical text forms, shared by the spec fingerprint, the wire codec,
// and the CLI so all three agree on one grammar:
//   arrival: "poisson" | "diurnal,<amp>,<period>,<phase>"
//            | "flash,<t0>,<width>,<boost>,<interval>,<pulses>"
//   classes: "<weight>,<upload_scale>,<download_cap>|..." ('|'-separated)
// Doubles use util::format_double_exact so the round trip is exact.
[[nodiscard]] std::string format_arrival(const ArrivalProcess& arrival);
[[nodiscard]] std::string format_classes(const std::vector<BandwidthClass>& classes);

/// Parses format_arrival's grammar. Throws btmf::ConfigError on unknown
/// kinds, wrong arity, or non-numeric fields; the result is validated.
[[nodiscard]] ArrivalProcess parse_arrival(std::string_view text);

/// Parses format_classes's grammar ("" = empty / homogeneous). Throws
/// btmf::ConfigError on malformed entries; the result is validated.
[[nodiscard]] std::vector<BandwidthClass> parse_classes(std::string_view text);

}  // namespace btmf::fluid
