#include "btmf/sweep/reproduce.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "btmf/util/error.h"

namespace btmf::sweep {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

TEST(SweepReproduce, RegistryListsFiguresInPaperOrder) {
  const std::vector<FigureSpec>& registry = figure_registry();
  ASSERT_EQ(registry.size(), 5u);
  EXPECT_EQ(registry[0].name, "fig2");
  EXPECT_EQ(registry[1].name, "fig3");
  EXPECT_EQ(registry[2].name, "fig4a");
  EXPECT_EQ(registry[3].name, "fig4bc");
  EXPECT_EQ(registry[4].name, "adapt");
  for (const FigureSpec& spec : registry) {
    EXPECT_NE(spec.run, nullptr);
    EXPECT_FALSE(spec.title.empty());
    EXPECT_FALSE(spec.paper_ref.empty());
  }
}

TEST(SweepReproduce, FindFigureByName) {
  ASSERT_NE(find_figure("fig4a"), nullptr);
  EXPECT_EQ(find_figure("fig4a")->name, "fig4a");
  EXPECT_EQ(find_figure("fig5"), nullptr);
  EXPECT_EQ(find_figure(""), nullptr);
}

TEST(SweepReproduce, ClaimRelationsEvaluateCorrectly) {
  EXPECT_TRUE(claim_within("t", "", 98.05, 98.0, 0.1).pass);
  EXPECT_FALSE(claim_within("t", "", 98.2, 98.0, 0.1).pass);
  EXPECT_TRUE(claim_at_most("t", "", 1.0, 1.0).pass);
  EXPECT_FALSE(claim_at_most("t", "", 1.1, 1.0).pass);
  EXPECT_TRUE(claim_at_most("t", "", 1.1, 1.0, 0.2).pass);
  EXPECT_TRUE(claim_at_least("t", "", 0.9, 1.0, 0.2).pass);
  EXPECT_FALSE(claim_at_least("t", "", 0.7, 1.0, 0.2).pass);
}

TEST(SweepReproduce, NanMeasurementFailsEveryRelation) {
  const double nan = std::nan("");
  EXPECT_FALSE(claim_within("t", "", nan, 0.0, 1e9).pass);
  EXPECT_FALSE(claim_at_most("t", "", nan, 1e9).pass);
  EXPECT_FALSE(claim_at_least("t", "", nan, -1e9).pass);
}

TEST(SweepReproduce, Fig2ClaimsPassAgainstPaperValues) {
  const FigureReport report = find_figure("fig2")->run({});
  EXPECT_EQ(report.name, "fig2");
  EXPECT_EQ(report.claims.size(), 5u);
  for (const Claim& claim : report.claims) {
    EXPECT_TRUE(claim.pass) << claim.id << ": measured " << claim.measured;
  }
  EXPECT_EQ(report.stats.points, 21u);
  EXPECT_EQ(report.stats.cache_misses, 21u);  // uncached run computes all
  ASSERT_EQ(report.tables.size(), 1u);
  EXPECT_EQ(report.tables[0].second.num_rows(), 21u);
}

TEST(SweepReproduce, Fig3ClaimsPassAgainstPaperValues) {
  const FigureReport report = find_figure("fig3")->run({});
  for (const Claim& claim : report.claims) {
    EXPECT_TRUE(claim.pass) << claim.id << ": measured " << claim.measured;
  }
  EXPECT_TRUE(report.all_pass());
}

TEST(SweepReproduce, Fig4aClaimsPassAgainstPaperValues) {
  const FigureReport report = find_figure("fig4a")->run({});
  EXPECT_EQ(report.claims.size(), 6u);
  for (const Claim& claim : report.claims) {
    EXPECT_TRUE(claim.pass) << claim.id << ": measured " << claim.measured;
  }
  EXPECT_EQ(report.stats.points, 110u);  // 10 p values x 11 rho values
}

TEST(SweepReproduce, Fig4bcClaimsPassAgainstPaperValues) {
  const FigureReport report = find_figure("fig4bc")->run({});
  for (const Claim& claim : report.claims) {
    EXPECT_TRUE(claim.pass) << claim.id << ": measured " << claim.measured;
  }
  ASSERT_EQ(report.tables.size(), 2u);  // Fig. 4(b) and Fig. 4(c)
}

TEST(SweepReproduce, CachedRerunReproducesTheReportVerbatim) {
  SweepOptions options;
  options.cache_dir = fresh_dir("reproduce_cache");
  const FigureReport cold = find_figure("fig2")->run(options);
  const FigureReport warm = find_figure("fig2")->run(options);
  EXPECT_EQ(cold.stats.cache_misses, 21u);
  EXPECT_EQ(warm.stats.cache_hits, 21u);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  // Rendering both to markdown compares every table cell and claim value
  // bit-for-bit (modulo the identical formatting path).
  EXPECT_EQ(reproduction_markdown({cold}), reproduction_markdown({warm}));
}

TEST(SweepReproduce, MarkdownIsDeterministicAndStructured) {
  const FigureReport report = find_figure("fig2")->run({});
  const std::string doc = reproduction_markdown({report});
  EXPECT_EQ(doc, reproduction_markdown({report}));
  EXPECT_NE(doc.find("Machine-written file"), std::string::npos);
  EXPECT_NE(doc.find("## Summary"), std::string::npos);
  EXPECT_NE(doc.find("fig2.mtcd_p1"), std::string::npos);
  EXPECT_NE(doc.find("**Overall: PASS**"), std::string::npos);
  // No wall-clock times or dates leak in (report diffs must be stable).
  EXPECT_EQ(doc.find("seconds"), std::string::npos);
}

TEST(SweepReproduce, FailingClaimMarksFigureAndOverallAsFail) {
  FigureReport report;
  report.name = "synthetic";
  report.title = "synthetic";
  report.paper_ref = "none";
  report.description = "synthetic failure";
  report.claims.push_back(claim_within("synthetic.bad", "", 2.0, 1.0, 0.1));
  EXPECT_FALSE(report.all_pass());
  const std::string doc = reproduction_markdown({report});
  EXPECT_NE(doc.find("**Overall: FAIL**"), std::string::npos);
  EXPECT_NE(doc.find("| FAIL"), std::string::npos);
}

TEST(SweepReproduce, WriteReportCreatesParentDirectories) {
  const fs::path dir = fs::path(fresh_dir("reproduce_write")) / "docs";
  const std::string path = (dir / "REPRODUCTION.md").string();
  const FigureReport report = find_figure("fig3")->run({});
  write_reproduction_report(path, {report});
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  EXPECT_EQ(content.str(), reproduction_markdown({report}));
}

}  // namespace
}  // namespace btmf::sweep
