// Fluid-model parameters (Table 1 of the paper).
//
// All rates are "files per unit time": a peer's upload bandwidth mu is the
// rate at which a seed can push one full file; the seed departure rate
// gamma gives a mean seeding residence of 1/gamma. The paper's evaluation
// constants are mu = 0.02, eta = 0.5, gamma = 0.05 (Sec. 4), which make
// the single-torrent download time (gamma - mu) / (gamma * mu * eta) = 60.
#pragma once

namespace btmf::fluid {

struct FluidParams {
  double mu = 0.02;    ///< peer upload bandwidth (file/unit time)
  double eta = 0.5;    ///< downloader-to-downloader sharing efficiency
  double gamma = 0.05; ///< seed departure rate (1/mean seeding time)

  /// Throws btmf::ConfigError unless 0 < mu, 0 < eta <= 1, 0 < gamma.
  void validate() const;

  /// True when the upload-constrained single-torrent model has a
  /// non-negative downloader population (requires gamma > mu; see the
  /// derivation of T = (gamma - mu)/(gamma mu eta) in Sec. 3.3).
  [[nodiscard]] bool single_torrent_stable() const { return gamma > mu; }
};

/// The exact constants used throughout the paper's Section 4 evaluation.
inline constexpr FluidParams kPaperParams{0.02, 0.5, 0.05};

}  // namespace btmf::fluid
