// Bit pins for the integrators on the fluid models' right-hand sides.
//
// Dopri5Stepper stepped over fluid-sweep's horizon of 40000 (clamped
// and not) and find_equilibrium on K = 20 CMFSD and MTCD systems at the
// default mu, eta and gamma: each result is folded into one FNV-1a
// checksum of its end state's bit patterns, its step counts and its next
// step. The Adapt fluid model, and so docs/REPRODUCTION.md, goes through
// this path, so any change to the integrators' arithmetic that moves a
// bit fails here even where every tolerance still holds.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "btmf/fluid/cmfsd.h"
#include "btmf/fluid/correlation.h"
#include "btmf/fluid/mtcd.h"
#include "btmf/math/equilibrium.h"
#include "btmf/math/ode.h"

namespace btmf::math {
namespace {

class Checksum {
 public:
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xFFU;
      h_ *= 1099511628211ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::vector<double>& values) {
    mix(static_cast<std::uint64_t>(values.size()));
    for (const double v : values) mix(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v << "ULL";
  return out.str();
}

struct FluidCase {
  const char* name;
  OdeRhs rhs;
  std::vector<double> y0;
};

/// K = 20 and lambda0 = 1: CMFSD at p = 0.5 and rho = 0.5 (230 states)
/// and MTCD at p = 0.5 (40 states) from an empty swarm, and MTCD at
/// p = 0.05 from one peer in every population, whose rarest classes
/// drain towards zero and dip below it on steps at dopri5's stability
/// bound, so the clamp fires and moves the result.
std::vector<FluidCase> fluid_cases() {
  const fluid::FluidParams params;
  const fluid::CorrelationModel corr(20, 0.5, 1.0);
  const fluid::CmfsdModel cmfsd(params, corr.system_entry_rates(), 0.5);
  const fluid::CorrelationModel sparse(20, 0.05, 1.0);
  return {{"CMFSD", cmfsd.rhs(), std::vector<double>(cmfsd.state_size())},
          {"MTCD", fluid::mtcd_rhs(params, corr.per_torrent_entry_rates()),
           std::vector<double>(40)},
          {"MTCD crowd",
           fluid::mtcd_rhs(params, sparse.per_torrent_entry_rates()),
           std::vector<double>(40, 1.0)}};
}

TEST(Dopri5Test, FluidRightHandSidesKeepTheirBits) {
  // fluid_cases() x {unclamped, clamped}.
  constexpr std::uint64_t kPinned[3][2] = {
      {0x24cdaeb62b1fab21ULL, 0x24cdaeb62b1fab21ULL},
      {0x8df6faea57c72e21ULL, 0x8df6faea57c72e21ULL},
      {0xf15b2243fa9baa34ULL, 0xa71aef1454581f01ULL}};
  const std::vector<FluidCase> cases = fluid_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const bool clamp : {false, true}) {
      AdaptiveOptions options;
      options.rtol = 1e-9;
      options.atol = 1e-12;
      options.clamp_nonnegative = clamp;
      // One run over [0, 40000] from a first step of 400, every step
      // capped at the span.
      Dopri5Stepper stepper(cases[c].rhs, options);
      stepper.start(0.0, cases[c].y0, 400.0, 40000.0);
      while (stepper.t() < 40000.0) stepper.step(40000.0, 40000.0 * 1e-14);
      Checksum sum;
      sum.mix(std::vector<double>(stepper.y().begin(), stepper.y().end()));
      sum.mix(stepper.t());
      sum.mix(static_cast<std::uint64_t>(stepper.accepted()));
      sum.mix(static_cast<std::uint64_t>(stepper.rejected()));
      sum.mix(stepper.next_dt());
      EXPECT_EQ(sum.value(), kPinned[c][clamp ? 1 : 0])
          << cases[c].name << (clamp ? " clamped" : "") << ": "
          << hex(sum.value());
    }
  }
}

TEST(EquilibriumTest, FluidRightHandSidesKeepTheirBits) {
  constexpr std::uint64_t kPinned[3] = {
      0x034bea30a6099434ULL, 0x9fb88917337c6b63ULL, 0xcb2e1be3474c7479ULL};
  const std::vector<FluidCase> cases = fluid_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const EquilibriumResult r = find_equilibrium(cases[c].rhs, cases[c].y0);
    Checksum sum;
    sum.mix(r.y);
    sum.mix(r.residual_inf);
    sum.mix(r.integrated_time);
    sum.mix(static_cast<std::uint64_t>(r.newton_converged));
    EXPECT_EQ(sum.value(), kPinned[c]) << cases[c].name << ": "
                                       << hex(sum.value());
  }
}

}  // namespace
}  // namespace btmf::math
