// The paper-reproduction registry: every figure of the paper's Sec. 4
// evaluation as a registered sweep, its headline claims as explicit
// tolerance checks, and a machine-written paper-vs-measured report.
//
// Each FigureSpec runs one or more cached sweeps (the same grids the
// bench/fig* binaries print), derives the figure's data tables, and
// checks the paper's claims — MTCD(p=1) online/file = 98 +- 0.1, MTSD
// flat at 80, CMFSD argmin over rho at 0 for every p, ... — returning
// per-claim PASS/FAIL. `btmf_tool reproduce` drives the registry and
// writes docs/REPRODUCTION.md, the repository's source of truth for
// measured numbers; a failing claim fails the tool (and CI).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "btmf/sweep/sweep.h"
#include "btmf/util/table.h"

namespace btmf::sweep {

enum class Relation {
  kWithin,   ///< |measured - expected| <= tolerance
  kAtMost,   ///< measured <= expected + tolerance
  kAtLeast,  ///< measured >= expected - tolerance
};

/// One checked paper claim. `pass` is derived at construction; NaN
/// measurements fail every relation.
struct Claim {
  std::string id;           ///< stable dotted id, e.g. "fig2.mtcd_p1"
  std::string description;  ///< the claim in words, incl. the paper hook
  Relation relation = Relation::kWithin;
  double expected = 0.0;
  double measured = 0.0;
  double tolerance = 0.0;
  bool pass = false;
  /// The claim could not be *evaluated* because its sweep had failed
  /// points (the figure degrades gracefully instead of dying). Renders as
  /// SKIP; counts as not-passed, so the figure and the overall report
  /// still read FAIL.
  bool skipped = false;
};

Claim claim_within(std::string id, std::string description, double measured,
                   double expected, double tolerance);
Claim claim_at_most(std::string id, std::string description, double measured,
                    double bound, double slack = 0.0);
Claim claim_at_least(std::string id, std::string description, double measured,
                     double bound, double slack = 0.0);
/// A claim that was not evaluated (see Claim::skipped).
Claim claim_skipped(std::string id);

/// Cache/effort accounting for one figure (summed over its sweeps).
struct FigureStats {
  std::size_t points = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t failures = 0;
  double seconds = 0.0;  ///< wall time; excluded from the written report

  void absorb(const SweepResult& sweep);
};

struct FigureReport {
  std::string name;   ///< registry key: fig2, fig3, fig4a, fig4bc, adapt
  std::string title;
  std::string paper_ref;    ///< short locator, e.g. "Fig. 2, Sec. 4.2.1"
  std::string description;  ///< what the figure shows and what the paper claims
  std::vector<std::pair<std::string, util::Table>> tables;  ///< (label, data)
  std::vector<Claim> claims;
  FigureStats stats;

  [[nodiscard]] std::size_t num_passed() const;
  [[nodiscard]] bool all_pass() const {
    return num_passed() == claims.size();
  }
};

struct FigureSpec {
  std::string name;
  std::string title;
  std::string paper_ref;
  FigureReport (*run)(const SweepOptions& options);
};

/// All registered figures, in paper order: fig2, fig3, fig4a, fig4bc,
/// adapt.
const std::vector<FigureSpec>& figure_registry();

/// Lookup by name; nullptr when unknown ("all" is the caller's job).
const FigureSpec* find_figure(std::string_view name);

/// The full docs/REPRODUCTION.md document: generation banner, per-figure
/// claim tables with PASS/FAIL, the data tables, and cache accounting.
/// Deterministic for deterministic reports (no timestamps, no wall
/// times), so regenerating into a committed file yields stable diffs.
std::string reproduction_markdown(const std::vector<FigureReport>& reports);

/// Writes reproduction_markdown to `path`, creating parent directories;
/// throws btmf::IoError on failure.
void write_reproduction_report(const std::string& path,
                               const std::vector<FigureReport>& reports);

}  // namespace btmf::sweep
