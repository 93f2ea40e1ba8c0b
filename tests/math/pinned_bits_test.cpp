// Bit pins for the integrators on the fluid models' right-hand sides.
//
// integrate_dopri5 (clamped and not, over fluid-sweep's horizon of
// 40000) and find_equilibrium on K = 20 CMFSD and MTCD systems at the
// default mu, eta and gamma: each result is folded into one FNV-1a
// checksum of its end state's bit patterns, its step counts and its next
// step. The Adapt
// fluid model, and so docs/REPRODUCTION.md, goes through this path, so
// any change to the integrators' arithmetic that moves a bit fails here
// even where every tolerance still holds.
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
      {0xd5a24ab85c9d31c9ULL, 0xd5a24ab85c9d31c9ULL},
      {0x72ead9e5c81eed63ULL, 0x72ead9e5c81eed63ULL},
      {0x9dc7d1853738d532ULL, 0xdc29020a49dc8cbaULL}};
  const std::vector<FluidCase> cases = fluid_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const bool clamp : {false, true}) {
      AdaptiveOptions options;
      options.rtol = 1e-9;
      options.atol = 1e-12;
      options.clamp_nonnegative = clamp;
      const AdaptiveResult r =
          integrate_dopri5(cases[c].rhs, cases[c].y0, 0.0, 40000.0, options);
      Checksum sum;
      sum.mix(r.y);
      sum.mix(r.t);
      sum.mix(static_cast<std::uint64_t>(r.accepted_steps));
      sum.mix(static_cast<std::uint64_t>(r.rejected_steps));
      sum.mix(r.next_dt);
      EXPECT_EQ(sum.value(), kPinned[c][clamp ? 1 : 0])
          << cases[c].name << (clamp ? " clamped" : "") << ": "
          << hex(sum.value());
    }
  }
}

TEST(EquilibriumTest, FluidRightHandSidesKeepTheirBits) {
  constexpr std::uint64_t kPinned[3] = {
      0xe402aa034f928d71ULL, 0x770c9e8dd54b578dULL, 0xa203e84c4d21489dULL};
  const std::vector<FluidCase> cases = fluid_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const EquilibriumResult r = find_equilibrium(cases[c].rhs, cases[c].y0);
    Checksum sum;
    sum.mix(r.y);
    sum.mix(r.residual_inf);
    sum.mix(r.integrated_time);
    sum.mix(static_cast<std::uint64_t>(r.chunks));
    sum.mix(static_cast<std::uint64_t>(r.newton_converged));
    EXPECT_EQ(sum.value(), kPinned[c]) << cases[c].name << ": "
                                       << hex(sum.value());
  }
}

}  // namespace
}  // namespace btmf::math
