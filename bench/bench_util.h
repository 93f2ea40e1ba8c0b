// Shared plumbing for the figure-reproduction benches: every binary
// prints a caption, the figure's data as an aligned table, and (with
// --csv <path>) saves the same data for replotting.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "btmf/util/cli.h"
#include "btmf/util/error.h"
#include "btmf/util/stopwatch.h"
#include "btmf/util/table.h"

namespace btmf::bench {

/// Peak resident-set size (VmHWM) of this process in bytes, read from
/// /proc/self/status. Returns 0 where procfs is unavailable, so callers
/// can print "n/a" instead of a lie.
inline std::size_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%zu", &kib);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

inline void emit(const util::Table& table, const std::string& caption,
                 const std::string& csv_path) {
  std::cout << "\n== " << caption << " ==\n\n";
  table.write_pretty(std::cout);
  if (!csv_path.empty()) {
    table.save_csv(csv_path);
    std::cout << "\n(csv saved to " << csv_path << ")\n";
  }
}

/// Every bench's main: runs body(argc, argv) and turns a btmf::Error that
/// escapes it (a bad option, say) into "error: ..." on stderr and exit
/// status 1, where the uncaught exception would abort the process.
template <typename Body>
int run_main(int argc, char** argv, Body body) {
  try {
    return body(argc, argv);
  } catch (const Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

/// Standard option set shared by all table benches.
inline util::ArgParser make_parser(const std::string& name,
                                   const std::string& summary) {
  util::ArgParser parser(name, summary);
  parser.add_option("csv", "", "also save the table as CSV to this path");
  return parser;
}

}  // namespace btmf::bench
