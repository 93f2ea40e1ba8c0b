#include "btmf/sweep/reproduce.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>

#include "btmf/fluid/mfcd.h"
#include "btmf/model/backend.h"
#include "btmf/sim/stats.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"

namespace btmf::sweep {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool holds(Relation relation, double measured, double expected,
           double tolerance) {
  // NaN fails every comparison, which is the behaviour we want: a claim
  // whose measurement could not be formed must read FAIL, not PASS.
  switch (relation) {
    case Relation::kWithin:
      return std::abs(measured - expected) <= tolerance;
    case Relation::kAtMost:
      return measured <= expected + tolerance;
    case Relation::kAtLeast:
      return measured >= expected - tolerance;
  }
  return false;
}

Claim make_claim(std::string id, std::string description, Relation relation,
                 double measured, double expected, double tolerance) {
  Claim claim;
  claim.id = std::move(id);
  claim.description = std::move(description);
  claim.relation = relation;
  claim.expected = expected;
  claim.measured = measured;
  claim.tolerance = tolerance;
  claim.pass = holds(relation, measured, expected, tolerance);
  return claim;
}

SweepOptions engine_options(const ReproduceOptions& options) {
  SweepOptions out;
  out.cache_dir = options.cache_dir;
  out.jobs = options.jobs;
  out.metrics = options.metrics;
  out.robust.timeout_s = options.timeout_s;
  out.robust.retry.retries = options.retries;
  out.robust.isolate = options.isolate;
  out.resume = options.resume;
  return out;
}

/// Every figure keys its disk cache on (backend name, canonical spec
/// fingerprint) — the one fingerprint scheme of the whole repository
/// (see docs/SWEEP.md). Grid-axis values are hashed separately per point.
std::string cache_key(std::string_view backend,
                      const model::ScenarioSpec& spec) {
  return "backend=" + std::string(backend) + "|" + spec.fingerprint();
}

const model::Backend& fluid_backend() {
  return model::require_backend("fluid-equilibrium");
}

/// The "did every point solve" claim every figure leads with; when it
/// fails the value claims are not evaluated (they would dereference
/// failed points) and the failures are tabulated instead.
Claim completeness_claim(const std::string& fig, std::size_t failures,
                         std::size_t points) {
  return claim_at_most(
      fig + ".complete",
      "all " + std::to_string(points) + " grid points solved without error",
      static_cast<double>(failures), 0.0);
}

void append_failure_table(FigureReport& report, const SweepResult& sweep) {
  util::Table table({"point", "kind", "error"});
  for (const PointOutcome& outcome : sweep.points) {
    if (outcome.status == PointStatus::kFailed) {
      table.add_row({outcome.point.canonical(),
                     std::string(robust::to_string(outcome.failure)),
                     outcome.error});
    }
  }
  report.tables.emplace_back("Failed points", std::move(table));
}

/// Graceful degradation: the value claims that could not be evaluated are
/// listed as SKIP instead of silently vanishing from the report, so a
/// degraded docs/REPRODUCTION.md still names every claim it was supposed
/// to check. (The leading completeness claim already reads FAIL.)
void mark_skipped(FigureReport& report,
                  std::initializer_list<const char*> claim_ids) {
  for (const char* id : claim_ids) {
    report.claims.push_back(claim_skipped(id));
  }
}

// ---------------------------------------------------------------------------
// Fig. 2 — system-average online time per file vs correlation p.

SweepSpec fig2_spec() {
  const model::ScenarioSpec base;
  SweepSpec spec;
  spec.name = "fig2";
  spec.grid.axis("p", linspace(0.0, 1.0, 21));
  spec.fingerprint = cache_key("fluid-equilibrium", base);
  spec.compute = [base](const GridPoint& point) {
    model::ScenarioSpec scenario = base;
    scenario.correlation = point.at("p");
    PointResult result;
    scenario.scheme = fluid::SchemeKind::kMtcd;
    result.values["mtcd_online_per_file"] =
        fluid_backend().evaluate_or_throw(scenario).avg_online_per_file;
    scenario.scheme = fluid::SchemeKind::kMtsd;
    result.values["mtsd_online_per_file"] =
        fluid_backend().evaluate_or_throw(scenario).avg_online_per_file;
    return result;
  };
  return spec;
}

FigureReport run_fig2(const ReproduceOptions& options) {
  FigureReport report;
  report.name = "fig2";
  report.title = "MTCD vs MTSD: average online time per file vs p";
  report.paper_ref = "Fig. 2, Sec. 4.2.1";
  report.description =
      "Paper Fig. 2 (Sec. 4.2.1): under the paper's constants the MTSD "
      "curve is flat at 80 time units while MTCD rises with the file "
      "correlation p, reaching 98 at p = 1 — concurrent downloading "
      "stretches per-file completion times, so peers linger.";

  const SweepSpec spec = fig2_spec();
  const SweepResult sweep = run_sweep(spec, engine_options(options));
  report.stats.absorb(sweep);
  report.claims.push_back(
      completeness_claim("fig2", sweep.failures, sweep.num_points()));
  if (sweep.failures > 0) {
    append_failure_table(report, sweep);
    mark_skipped(report, {"fig2.mtsd_flat", "fig2.mtcd_p0", "fig2.mtcd_p1",
                          "fig2.mtcd_monotone"});
    return report;
  }

  util::Table table(
      {"p", "MTCD online/file", "MTSD online/file", "MTCD/MTSD"});
  double mtcd_first = 0.0;
  double mtcd_last = 0.0;
  double max_mtsd_dev = 0.0;
  double min_mtcd_step = kInf;
  double prev_mtcd = 0.0;
  for (std::size_t i = 0; i < sweep.num_points(); ++i) {
    const double p = sweep.points[i].point.at("p");
    const PointResult& point = sweep.result_at(i);
    const double mtcd = point.at("mtcd_online_per_file");
    const double mtsd = point.at("mtsd_online_per_file");
    table.add_row({p, mtcd, mtsd, mtcd / mtsd});
    max_mtsd_dev = std::max(max_mtsd_dev, std::abs(mtsd - 80.0));
    if (i == 0) mtcd_first = mtcd;
    if (i + 1 == sweep.num_points()) mtcd_last = mtcd;
    if (i > 0) min_mtcd_step = std::min(min_mtcd_step, mtcd - prev_mtcd);
    prev_mtcd = mtcd;
  }
  report.tables.emplace_back(
      "Average online time per file vs correlation p (21-point grid)",
      std::move(table));

  report.claims.push_back(claim_within(
      "fig2.mtsd_flat",
      "MTSD is insensitive to p: max_p |online/file - 80| over the grid",
      max_mtsd_dev, 0.0, 0.1));
  report.claims.push_back(claim_within(
      "fig2.mtcd_p0", "MTCD online/file at p = 0 (single-torrent limit, 80)",
      mtcd_first, 80.0, 0.1));
  report.claims.push_back(claim_within(
      "fig2.mtcd_p1", "MTCD online/file at p = 1 (the paper's headline 98)",
      mtcd_last, 98.0, 0.1));
  report.claims.push_back(claim_at_least(
      "fig2.mtcd_monotone",
      "MTCD degrades monotonically with p: min consecutive increment",
      min_mtcd_step, 0.0, 1e-9));
  return report;
}

// ---------------------------------------------------------------------------
// Fig. 3 — per-class online/download times under MTCD and MTSD.

SweepSpec fig3_spec() {
  const model::ScenarioSpec base;
  SweepSpec spec;
  spec.name = "fig3";
  spec.grid.axis("p", {0.1, 1.0});
  spec.fingerprint = cache_key("fluid-equilibrium", base);
  spec.compute = [base](const GridPoint& point) {
    model::ScenarioSpec scenario = base;
    scenario.scheme = fluid::SchemeKind::kMtsd;
    scenario.correlation = point.at("p");
    const model::Outcome mtsd = fluid_backend().evaluate_or_throw(scenario);
    PointResult result;
    // The paper plots MTCD's closed-form curves T_i/i = A + 1/(i gamma)
    // and D_i/i = A over ALL classes, including classes whose population
    // vanishes at this p, so the point stores the per-file factor A.
    result.values["mtcd_factor_a"] = fluid::mfcd_download_time_per_file(
        scenario.fluid, scenario.correlation_model());
    for (unsigned i = 1; i <= base.num_files; ++i) {
      const std::string suffix = ".c" + std::to_string(i);
      result.values["mtsd_online" + suffix] =
          mtsd.per_class.online_per_file[i - 1];
      result.values["mtsd_dl" + suffix] =
          mtsd.per_class.download_per_file[i - 1];
    }
    return result;
  };
  return spec;
}

FigureReport run_fig3(const ReproduceOptions& options) {
  const model::ScenarioSpec base;
  FigureReport report;
  report.name = "fig3";
  report.title = "Per-class times: MTCD's light users pay, heavy users gain";
  report.paper_ref = "Fig. 3, Sec. 4.2.1";
  report.description =
      "Paper Fig. 3 (Sec. 4.2.1): MTCD's per-class online time is "
      "T_i/i = A + 1/(i gamma), so single-file users (class 1) wait far "
      "longer than under MTSD while many-file users amortise the seeding "
      "residence and beat MTSD; MTSD itself is flat across classes (80 "
      "online, 60 download per file).";

  const SweepSpec spec = fig3_spec();
  const SweepResult sweep = run_sweep(spec, engine_options(options));
  report.stats.absorb(sweep);
  report.claims.push_back(
      completeness_claim("fig3", sweep.failures, sweep.num_points()));
  if (sweep.failures > 0) {
    append_failure_table(report, sweep);
    mark_skipped(report,
                 {"fig3.mtsd_online_flat", "fig3.mtsd_dl_flat",
                  "fig3.p01_class1", "fig3.p01_class10", "fig3.p1_class10",
                  "fig3.light_users_pay", "fig3.heavy_users_gain"});
    return report;
  }

  const double gamma = base.fluid.gamma;
  const unsigned k = base.num_files;
  util::Table table({"p", "class", "MTCD online/file", "MTSD online/file",
                     "MTCD dl/file", "MTSD dl/file"});
  double max_online_dev = 0.0;  // MTSD online vs the flat 80
  double max_dl_dev = 0.0;      // MTSD download vs the flat 60
  std::map<double, const PointResult*> by_p;
  for (std::size_t idx = 0; idx < sweep.num_points(); ++idx) {
    const double p = sweep.points[idx].point.at("p");
    const PointResult& point = sweep.result_at(idx);
    by_p[p] = &point;
    const double factor_a = point.at("mtcd_factor_a");
    for (unsigned i = 1; i <= k; ++i) {
      const std::string suffix = ".c" + std::to_string(i);
      const double mtsd_online = point.at("mtsd_online" + suffix);
      const double mtsd_dl = point.at("mtsd_dl" + suffix);
      table.add_row({p, static_cast<double>(i),
                     factor_a + 1.0 / (i * gamma), mtsd_online, factor_a,
                     mtsd_dl});
      max_online_dev = std::max(max_online_dev, std::abs(mtsd_online - 80.0));
      max_dl_dev = std::max(max_dl_dev, std::abs(mtsd_dl - 60.0));
    }
  }
  report.tables.emplace_back(
      "Per-class per-file times at p = 0.1 and p = 1.0", std::move(table));

  const auto mtcd_online = [&](double p, unsigned cls) {
    return by_p.at(p)->at("mtcd_factor_a") + 1.0 / (cls * gamma);
  };
  const auto mtsd_online = [&](double p, unsigned cls) {
    return by_p.at(p)->at("mtsd_online.c" + std::to_string(cls));
  };

  report.claims.push_back(claim_within(
      "fig3.mtsd_online_flat",
      "MTSD online/file is class- and p-independent: max |value - 80|",
      max_online_dev, 0.0, 0.1));
  report.claims.push_back(claim_within(
      "fig3.mtsd_dl_flat",
      "MTSD download/file is class- and p-independent: max |value - 60|",
      max_dl_dev, 0.0, 0.1));
  report.claims.push_back(claim_within(
      "fig3.p01_class1",
      "MTCD online/file, class 1 at p = 0.1 (A(0.1) + 1/gamma = 93.95)",
      mtcd_online(0.1, 1), 93.95, 0.1));
  report.claims.push_back(claim_within(
      "fig3.p01_class10",
      "MTCD online/file, class 10 at p = 0.1 (A(0.1) + 1/(10 gamma) = 75.95)",
      mtcd_online(0.1, k), 75.95, 0.1));
  report.claims.push_back(claim_within(
      "fig3.p1_class10",
      "MTCD online/file, class 10 at p = 1 (A(1) + 2 = 98, Fig. 2's p = 1 "
      "value: at p = 1 everyone is class K)",
      mtcd_online(1.0, k), 98.0, 0.1));
  report.claims.push_back(claim_at_least(
      "fig3.light_users_pay",
      "at p = 0.1 MTCD is worse than MTSD for class 1 (online/file gap)",
      mtcd_online(0.1, 1) - mtsd_online(0.1, 1), 0.0));
  report.claims.push_back(claim_at_most(
      "fig3.heavy_users_gain",
      "at p = 0.1 MTCD beats MTSD for class 10 (online/file gap)",
      mtcd_online(0.1, k) - mtsd_online(0.1, k), 0.0));
  return report;
}

// ---------------------------------------------------------------------------
// Fig. 4(a) — CMFSD average online time over the (p, rho) grid.

SweepSpec fig4a_spec() {
  const model::ScenarioSpec base;
  SweepSpec spec;
  spec.name = "fig4a";
  // CMFSD is undefined at p = 0 (nobody requests any file), so the grid
  // starts at 0.1 exactly as the paper's sweep does.
  spec.grid.axis("p", linspace(0.1, 1.0, 10))
      .axis("rho", linspace(0.0, 1.0, 11));
  spec.fingerprint = cache_key("fluid-equilibrium", base);
  spec.compute = [base](const GridPoint& point) {
    model::ScenarioSpec scenario = base;
    scenario.scheme = fluid::SchemeKind::kCmfsd;
    scenario.correlation = point.at("p");
    scenario.rho = point.at("rho");
    const model::Outcome outcome = fluid_backend().evaluate_or_throw(scenario);
    PointResult result;
    result.values["online"] = outcome.avg_online_per_file;
    result.values["dl"] = outcome.avg_download_per_file;
    return result;
  };
  return spec;
}

FigureReport run_fig4a(const ReproduceOptions& options) {
  const model::ScenarioSpec base;
  FigureReport report;
  report.name = "fig4a";
  report.title = "CMFSD: rho = 0 is optimal at every correlation";
  report.paper_ref = "Fig. 4(a), Sec. 4.2.2";
  report.description =
      "Paper Fig. 4(a) (Sec. 4.2.2): the average online time per file "
      "under CMFSD is minimised at rho = 0 (donate the whole virtual-seed "
      "bandwidth) for every p, grows monotonically with rho, and at "
      "rho = 1 collapses onto MFCD; the rho = 0 advantage widens as p "
      "grows (about 27% at p = 0.1, 47% at p = 1).";

  const SweepSpec spec = fig4a_spec();
  const SweepResult sweep = run_sweep(spec, engine_options(options));
  report.stats.absorb(sweep);
  report.claims.push_back(
      completeness_claim("fig4a", sweep.failures, sweep.num_points()));
  if (sweep.failures > 0) {
    append_failure_table(report, sweep);
    mark_skipped(report,
                 {"fig4a.argmin_rho0", "fig4a.monotone_in_rho",
                  "fig4a.rho1_is_mfcd", "fig4a.p09_rho0",
                  "fig4a.improvement_grows"});
    return report;
  }

  const std::vector<double>& p_values = spec.grid.axes()[0].values;
  const std::vector<double>& rho_values = spec.grid.axes()[1].values;
  const std::size_t nr = rho_values.size();
  const auto online_at = [&](std::size_t pi, std::size_t ri) {
    return sweep.result_at(pi * nr + ri).at("online");
  };

  std::vector<std::string> headers{"p"};
  for (const double rho : rho_values) {
    headers.push_back("rho=" + util::format_double(rho, 3));
  }
  util::Table table(std::move(headers));

  std::size_t argmin_not_zero = 0;
  double min_rho_step = kInf;        // monotonicity in rho, every p row
  double max_mfcd_gap = 0.0;         // |online(p, 1) - MFCD online(p)|
  double min_improvement_step = kInf;
  double online_p09_rho0 = 0.0;
  double prev_improvement = 0.0;
  for (std::size_t pi = 0; pi < p_values.size(); ++pi) {
    std::vector<util::Cell> row{p_values[pi]};
    std::size_t argmin = 0;
    for (std::size_t ri = 0; ri < nr; ++ri) {
      const double online = online_at(pi, ri);
      row.emplace_back(online);
      if (online < online_at(pi, argmin)) argmin = ri;
      if (ri > 0) {
        min_rho_step =
            std::min(min_rho_step, online - online_at(pi, ri - 1));
      }
    }
    table.add_row(std::move(row));
    if (argmin != 0) ++argmin_not_zero;

    model::ScenarioSpec scenario = base;
    scenario.scheme = fluid::SchemeKind::kMfcd;
    scenario.correlation = p_values[pi];
    const double mfcd_online =
        fluid_backend().evaluate_or_throw(scenario).avg_online_per_file;
    max_mfcd_gap = std::max(
        max_mfcd_gap, std::abs(online_at(pi, nr - 1) - mfcd_online));

    const double improvement =
        1.0 - online_at(pi, 0) / online_at(pi, nr - 1);
    if (pi > 0) {
      min_improvement_step =
          std::min(min_improvement_step, improvement - prev_improvement);
    }
    prev_improvement = improvement;
    if (std::abs(p_values[pi] - 0.9) < 1e-12) {
      online_p09_rho0 = online_at(pi, 0);
    }
  }
  report.tables.emplace_back(
      "CMFSD average online time per file over the (p, rho) grid",
      std::move(table));

  report.claims.push_back(claim_at_most(
      "fig4a.argmin_rho0",
      "rho = 0 minimises the online time in every p row (rows violating)",
      static_cast<double>(argmin_not_zero), 0.0));
  report.claims.push_back(claim_at_least(
      "fig4a.monotone_in_rho",
      "online time grows monotonically with rho in every p row: min "
      "consecutive increment",
      min_rho_step, 0.0, 1e-9));
  report.claims.push_back(claim_within(
      "fig4a.rho1_is_mfcd",
      "the rho = 1 column reproduces MFCD: max_p |CMFSD(p, 1) - MFCD(p)|",
      max_mfcd_gap, 0.0, 1e-6));
  report.claims.push_back(claim_within(
      "fig4a.p09_rho0", "CMFSD online/file at p = 0.9, rho = 0",
      online_p09_rho0, 51.89, 0.1));
  report.claims.push_back(claim_at_least(
      "fig4a.improvement_grows",
      "the rho = 0 advantage over rho = 1 widens with p: min consecutive "
      "increment of 1 - online(p, 0)/online(p, 1)",
      min_improvement_step, 0.0, 1e-9));
  return report;
}

// ---------------------------------------------------------------------------
// Fig. 4(b)/(c) — CMFSD per-class times vs MFCD at p = 0.9 and p = 0.1.

SweepSpec fig4bc_spec() {
  const model::ScenarioSpec base;
  SweepSpec spec;
  spec.name = "fig4bc";
  spec.grid.axis("p", {0.9, 0.1}).axis("rho", {0.1, 0.9});
  spec.fingerprint = cache_key("fluid-equilibrium", base);
  spec.compute = [base](const GridPoint& point) {
    model::ScenarioSpec scenario = base;
    scenario.scheme = fluid::SchemeKind::kCmfsd;
    scenario.correlation = point.at("p");
    scenario.rho = point.at("rho");
    const model::Outcome outcome = fluid_backend().evaluate_or_throw(scenario);
    PointResult result;
    for (unsigned i = 1; i <= base.num_files; ++i) {
      const std::string suffix = ".c" + std::to_string(i);
      result.values["online" + suffix] =
          outcome.per_class.online_per_file[i - 1];
      result.values["dl" + suffix] =
          outcome.per_class.download_per_file[i - 1];
    }
    return result;
  };
  return spec;
}

FigureReport run_fig4bc(const ReproduceOptions& options) {
  const model::ScenarioSpec base;
  const unsigned k = base.num_files;
  FigureReport report;
  report.name = "fig4bc";
  report.title = "CMFSD per class: everyone beats MFCD, mild unfairness";
  report.paper_ref = "Fig. 4(b)/(c), Sec. 4.2.2";
  report.description =
      "Paper Fig. 4(b)/(c) (Sec. 4.2.2): at small rho every class's "
      "online time beats MFCD's by a wide margin; the price is mild "
      "unfairness — per-file download time grows with the class index "
      "(single-file users finish a file fastest), most visibly at low p.";

  const SweepSpec spec = fig4bc_spec();
  const SweepResult sweep = run_sweep(spec, engine_options(options));
  report.stats.absorb(sweep);
  report.claims.push_back(
      completeness_claim("fig4bc", sweep.failures, sweep.num_points()));
  if (sweep.failures > 0) {
    append_failure_table(report, sweep);
    mark_skipped(report,
                 {"fig4b.every_class_beats_mfcd", "fig4c.class1_dl",
                  "fig4c.class10_dl", "fig4bc.class1_fastest"});
    return report;
  }

  const std::vector<double>& p_values = spec.grid.axes()[0].values;
  const std::vector<double>& rho_values = spec.grid.axes()[1].values;
  const auto result_at = [&](std::size_t pi, std::size_t ri) -> const
      PointResult& { return sweep.result_at(pi * rho_values.size() + ri); };

  double min_dl_gap_to_class1 = kInf;  // dl.ci - dl.c1 over every cell
  double fig4b_max_online = 0.0;       // worst class, p = 0.9, rho = 0.1
  double fig4c_dl_c1 = 0.0;
  double fig4c_dl_ck = 0.0;
  for (std::size_t pi = 0; pi < p_values.size(); ++pi) {
    const double p = p_values[pi];
    model::ScenarioSpec scenario = base;
    scenario.scheme = fluid::SchemeKind::kMfcd;
    scenario.correlation = p;
    const model::Outcome mfcd = fluid_backend().evaluate_or_throw(scenario);

    std::vector<std::string> headers{"class"};
    for (const double rho : rho_values) {
      const std::string tag = "CMFSD rho=" + util::format_double(rho, 3);
      headers.push_back(tag + " online/file");
      headers.push_back(tag + " dl/file");
    }
    headers.push_back("MFCD online/file");
    headers.push_back("MFCD dl/file");
    util::Table table(std::move(headers));

    for (unsigned i = 1; i <= k; ++i) {
      const std::string suffix = ".c" + std::to_string(i);
      std::vector<util::Cell> row{static_cast<double>(i)};
      for (std::size_t ri = 0; ri < rho_values.size(); ++ri) {
        const PointResult& cell = result_at(pi, ri);
        const double online = cell.at("online" + suffix);
        const double dl = cell.at("dl" + suffix);
        row.emplace_back(online);
        row.emplace_back(dl);
        min_dl_gap_to_class1 =
            std::min(min_dl_gap_to_class1, dl - cell.at("dl.c1"));
      }
      row.emplace_back(mfcd.per_class.online_per_file[i - 1]);
      row.emplace_back(mfcd.per_class.download_per_file[i - 1]);
      table.add_row(std::move(row));
    }
    report.tables.emplace_back(
        "Per-class per-file times at p = " + util::format_double(p, 3),
        std::move(table));
  }

  // Headline cells. Grid is row-major with p the slow axis, so
  // (p = 0.9, rho = 0.1) is point 0 and (p = 0.1, rho = 0.1) is point 2.
  const PointResult& fig4b_cell = result_at(0, 0);
  const PointResult& fig4c_cell = result_at(1, 0);
  model::ScenarioSpec fig4b_scenario = base;
  fig4b_scenario.scheme = fluid::SchemeKind::kMfcd;
  fig4b_scenario.correlation = 0.9;
  const model::Outcome fig4b_mfcd =
      fluid_backend().evaluate_or_throw(fig4b_scenario);
  double fig4b_min_mfcd_online = kInf;
  for (unsigned i = 1; i <= k; ++i) {
    fig4b_max_online = std::max(
        fig4b_max_online, fig4b_cell.at("online.c" + std::to_string(i)));
    fig4b_min_mfcd_online = std::min(fig4b_min_mfcd_online,
                                     fig4b_mfcd.per_class.online_per_file[i - 1]);
  }
  fig4c_dl_c1 = fig4c_cell.at("dl.c1");
  fig4c_dl_ck = fig4c_cell.at("dl.c" + std::to_string(k));

  report.claims.push_back(claim_at_most(
      "fig4b.every_class_beats_mfcd",
      "at p = 0.9, rho = 0.1 the WORST CMFSD class is still faster online "
      "than the BEST MFCD class (gap)",
      fig4b_max_online - fig4b_min_mfcd_online, 0.0));
  report.claims.push_back(claim_within(
      "fig4c.class1_dl", "download/file, class 1 at p = 0.1, rho = 0.1",
      fig4c_dl_c1, 42.8, 0.5));
  report.claims.push_back(claim_within(
      "fig4c.class10_dl", "download/file, class 10 at p = 0.1, rho = 0.1",
      fig4c_dl_ck, 66.9, 0.5));
  report.claims.push_back(claim_at_least(
      "fig4bc.class1_fastest",
      "single-file users have the smallest per-file download time in every "
      "cell: min over cells and classes of dl(class i) - dl(class 1)",
      min_dl_gap_to_class1, 0.0, 1e-9));
  return report;
}

// ---------------------------------------------------------------------------
// Adapt — the paper's Sec. 4.3 mechanism, exercised in the discrete-event
// simulator with a cheater-fraction sweep.

model::ScenarioSpec adapt_base_spec() {
  model::ScenarioSpec spec;
  spec.num_files = 5;
  spec.correlation = 0.9;
  spec.visit_rate = 1.0;
  spec.scheme = fluid::SchemeKind::kCmfsd;
  spec.rho = 0.0;
  spec.horizon = 2500.0;
  spec.warmup = 750.0;
  return spec;
}

/// Mean departure rho over the multi-file classes that completed users
/// (class 1 has no virtual seed, so no rho to adapt).
double mean_multi_file_rho(const sim::SimResult& result) {
  double weighted = 0.0;
  double users = 0.0;
  for (std::size_t c = 1; c < result.classes.size(); ++c) {
    const sim::PerClassResult& cls = result.classes[c];
    weighted +=
        cls.mean_final_rho * static_cast<double>(cls.completed_users);
    users += static_cast<double>(cls.completed_users);
  }
  return users > 0.0 ? weighted / users
                     : std::numeric_limits<double>::quiet_NaN();
}

SweepSpec adapt_spec(bool adapt_enabled) {
  model::ScenarioSpec base = adapt_base_spec();
  base.adapt.enabled = adapt_enabled;
  SweepSpec spec;
  spec.name = adapt_enabled ? "adapt-on" : "adapt-off";
  spec.grid
      .axis("cheaters", adapt_enabled
                            ? std::vector<double>{0.0, 0.5, 0.8}
                            : std::vector<double>{0.0})
      .axis("rep", {0.0, 1.0});
  spec.fingerprint = cache_key("kernel-sim", base);
  // One single-replication backend call per point: the replication index
  // is a grid axis, so each replication is cached and journaled as a
  // point of its own.
  spec.compute = [base](const GridPoint& point) {
    model::ScenarioSpec scenario = base;
    scenario.cheater_fraction = point.at("cheaters");
    scenario.seed = 20'060 + static_cast<std::uint64_t>(point.at("rep"));
    const model::Outcome outcome =
        model::require_backend("kernel-sim").evaluate_or_throw(scenario);
    PointResult result;
    result.values["online_per_file"] = outcome.avg_online_per_file;
    result.values["mean_final_rho"] = mean_multi_file_rho(*outcome.sim);
    return result;
  };
  return spec;
}

FigureReport run_adapt(const ReproduceOptions& options) {
  FigureReport report;
  report.name = "adapt";
  report.title = "Adapt: generous without cheaters, protective with them";
  report.paper_ref = "Sec. 4.3";
  report.description =
      "Paper Sec. 4.3: the Adapt controller starts at rho = 0 and only "
      "raises rho when a peer's virtual-seed balance shows it is being "
      "exploited. With no cheaters the population should stay near the "
      "rho = 0 optimum of Fig. 4(a); as the cheater fraction grows, "
      "obedient peers raise rho in self-defence and system performance "
      "degrades. (The paper proposes Adapt without evaluating it; these "
      "measurements are this repository's discrete-event check of the "
      "claimed behaviour, averaged over 2 seeds.)";

  const SweepSpec on_spec = adapt_spec(true);
  const SweepSpec off_spec = adapt_spec(false);
  const SweepResult on = run_sweep(on_spec, engine_options(options));
  const SweepResult off = run_sweep(off_spec, engine_options(options));
  report.stats.absorb(on);
  report.stats.absorb(off);
  report.claims.push_back(completeness_claim(
      "adapt", on.failures + off.failures, on.num_points() + off.num_points()));
  if (on.failures + off.failures > 0) {
    append_failure_table(report, on.failures > 0 ? on : off);
    mark_skipped(report,
                 {"adapt.stays_generous", "adapt.matches_rho0_optimum",
                  "adapt.reacts_to_cheating", "adapt.rho_monotone",
                  "adapt.cheating_hurts"});
    return report;
  }

  // Average the two replications per cheater fraction.
  const std::vector<double>& cheater_values = on_spec.grid.axes()[0].values;
  const std::size_t reps = on_spec.grid.axes()[1].values.size();
  std::vector<double> online(cheater_values.size(), 0.0);
  std::vector<double> rho(cheater_values.size(), 0.0);
  for (std::size_t ci = 0; ci < cheater_values.size(); ++ci) {
    for (std::size_t r = 0; r < reps; ++r) {
      const PointResult& point = on.result_at(ci * reps + r);
      online[ci] += point.at("online_per_file") / static_cast<double>(reps);
      rho[ci] += point.at("mean_final_rho") / static_cast<double>(reps);
    }
  }
  double off_online = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    off_online +=
        off.result_at(r).at("online_per_file") / static_cast<double>(reps);
  }

  util::Table table({"cheater fraction", "Adapt online/file",
                     "Adapt mean departure rho"});
  for (std::size_t ci = 0; ci < cheater_values.size(); ++ci) {
    table.add_row({cheater_values[ci], online[ci], rho[ci]});
  }
  report.tables.emplace_back(
      "Adapt vs cheater fraction (K = 5, p = 0.9, CMFSD, 2 seeds); the "
      "fixed rho = 0 baseline with no cheaters averages " +
          util::format_double(off_online, 6) + " online/file",
      std::move(table));

  report.claims.push_back(claim_at_most(
      "adapt.stays_generous",
      "with no cheaters the mean departure rho stays near the recommended "
      "starting point 0",
      rho[0], 0.05));
  report.claims.push_back(claim_within(
      "adapt.matches_rho0_optimum",
      "with no cheaters Adapt matches the fixed rho = 0 system: relative "
      "online/file gap |adapt - fixed| / fixed",
      std::abs(online[0] - off_online) / off_online, 0.0, 0.05));
  report.claims.push_back(claim_at_least(
      "adapt.reacts_to_cheating",
      "obedient peers protect themselves: mean departure rho rise from 0% "
      "to 80% cheaters",
      rho[2] - rho[0], 0.05));
  report.claims.push_back(claim_at_least(
      "adapt.rho_monotone",
      "protection grows with the cheater fraction: min consecutive rho "
      "increment over 0% -> 50% -> 80%",
      std::min(rho[1] - rho[0], rho[2] - rho[1]), 0.0, 0.02));
  report.claims.push_back(claim_at_least(
      "adapt.cheating_hurts",
      "cheating degrades the system: online/file rise from 0% to 80% "
      "cheaters",
      online[2] - online[0], 0.0));
  return report;
}

}  // namespace

// ---------------------------------------------------------------------------

Claim claim_within(std::string id, std::string description, double measured,
                   double expected, double tolerance) {
  return make_claim(std::move(id), std::move(description), Relation::kWithin,
                    measured, expected, tolerance);
}

Claim claim_at_most(std::string id, std::string description, double measured,
                    double bound, double slack) {
  return make_claim(std::move(id), std::move(description), Relation::kAtMost,
                    measured, bound, slack);
}

Claim claim_at_least(std::string id, std::string description, double measured,
                     double bound, double slack) {
  return make_claim(std::move(id), std::move(description), Relation::kAtLeast,
                    measured, bound, slack);
}

Claim claim_skipped(std::string id) {
  Claim claim;
  claim.id = std::move(id);
  claim.description =
      "not evaluated: the figure's sweep had permanently failed points";
  claim.pass = false;
  claim.skipped = true;
  return claim;
}

void FigureStats::absorb(const SweepResult& sweep) {
  points += sweep.num_points();
  cache_hits += sweep.cache_hits;
  cache_misses += sweep.cache_misses;
  failures += sweep.failures;
  seconds += sweep.wall_seconds;
}

std::size_t FigureReport::num_passed() const {
  return static_cast<std::size_t>(
      std::count_if(claims.begin(), claims.end(),
                    [](const Claim& claim) { return claim.pass; }));
}

const std::vector<FigureSpec>& figure_registry() {
  static const std::vector<FigureSpec> registry{
      {"fig2", "MTCD vs MTSD: average online time per file vs p",
       "Fig. 2, Sec. 4.2.1", &run_fig2},
      {"fig3", "Per-class times under MTCD and MTSD", "Fig. 3, Sec. 4.2.1",
       &run_fig3},
      {"fig4a", "CMFSD online time over the (p, rho) grid",
       "Fig. 4(a), Sec. 4.2.2", &run_fig4a},
      {"fig4bc", "CMFSD per-class times vs MFCD", "Fig. 4(b)/(c), Sec. 4.2.2",
       &run_fig4bc},
      {"adapt", "The Adapt mechanism under cheating", "Sec. 4.3", &run_adapt},
  };
  return registry;
}

const FigureSpec* find_figure(std::string_view name) {
  for (const FigureSpec& spec : figure_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

const char* relation_text(Relation relation) {
  switch (relation) {
    case Relation::kWithin:
      return "within +-tol of";
    case Relation::kAtMost:
      return "at most";
    case Relation::kAtLeast:
      return "at least";
  }
  return "?";
}

util::Table claims_table(const std::vector<Claim>& claims) {
  util::Table table(
      {"claim", "check", "expected", "tolerance", "measured", "status"});
  for (const Claim& claim : claims) {
    if (claim.skipped) {
      table.add_row({claim.id, std::string("-"), std::string("-"),
                     std::string("-"), std::string("-"),
                     std::string("SKIP")});
      continue;
    }
    table.add_row({claim.id, std::string(relation_text(claim.relation)),
                   claim.expected, claim.tolerance, claim.measured,
                   std::string(claim.pass ? "PASS" : "FAIL")});
  }
  return table;
}

}  // namespace

std::string reproduction_markdown(const std::vector<FigureReport>& reports) {
  std::size_t total_claims = 0;
  std::size_t total_passed = 0;
  for (const FigureReport& report : reports) {
    total_claims += report.claims.size();
    total_passed += report.num_passed();
  }
  const bool all_pass = total_passed == total_claims;

  std::ostringstream os;
  os << "# Reproduction report: paper vs measured\n\n";
  os << "> **Machine-written file — do not edit.** Generated by "
        "`btmf_tool reproduce`\n"
        "> from the figure registry in `src/sweep/src/reproduce.cpp`; "
        "regenerate with\n"
        "> `btmf_tool reproduce --report docs/REPRODUCTION.md`. Claim "
        "tolerances live in\n"
        "> the registry; the sweep/cache machinery behind the numbers is "
        "described in\n"
        "> [docs/SWEEP.md](SWEEP.md), and "
        "[EXPERIMENTS.md](../EXPERIMENTS.md) gives the\n"
        "> narrative tour of what each figure means.\n\n";
  os << "Source paper: *Analyzing Multiple File Downloading in BitTorrent* "
        "(ICPP 2006).\n"
        "Every headline figure of the paper's evaluation is regenerated "
        "from this\n"
        "repository's models and checked against the paper's claims with "
        "explicit\n"
        "tolerances.\n\n";

  os << "## Summary\n\n";
  util::Table summary({"figure", "paper reference", "claims", "status"});
  for (const FigureReport& report : reports) {
    summary.add_row({report.name + " — " + report.title, report.paper_ref,
                     std::to_string(report.num_passed()) + "/" +
                         std::to_string(report.claims.size()),
                     std::string(report.all_pass() ? "PASS" : "FAIL")});
  }
  os << summary.to_string() << '\n';
  os << "**Overall: " << (all_pass ? "PASS" : "FAIL") << "** ("
     << total_passed << "/" << total_claims << " claims).\n";

  for (const FigureReport& report : reports) {
    os << "\n## `" << report.name << "` — " << report.title << "\n\n";
    os << report.description << "\n\n";
    os << "### Claims\n\n" << claims_table(report.claims).to_string();
    for (const auto& [label, table] : report.tables) {
      os << "\n**" << label << "**\n\n" << table.to_string();
    }
    // Cache hit/miss accounting is deliberately omitted: it varies between
    // cold and warm runs, and this file must regenerate byte-identically.
    os << "\nSweep size: " << report.stats.points << " grid points ("
       << report.stats.failures << " failed).\n";
  }
  return os.str();
}

void write_reproduction_report(const std::string& path,
                               const std::vector<FigureReport>& reports) {
  const std::filesystem::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  std::ofstream file(target);
  if (!file) throw IoError("cannot open '" + path + "' for writing");
  file << reproduction_markdown(reports);
  if (!file) throw IoError("write to '" + path + "' failed");
}

}  // namespace btmf::sweep
