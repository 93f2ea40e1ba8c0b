// Tiny command-line argument parser for benches and examples.
//
// Supports `--key value`, `--key=value`, and boolean `--flag` forms.
// Options must be declared up front so `--help` output is complete and
// unknown arguments are rejected instead of silently ignored.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace btmf::util {

class ArgParser {
 public:
  /// `program` and `summary` appear in the --help text.
  ArgParser(std::string program, std::string summary);

  /// Declares a value option with a default (shown in --help).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Declares a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false if --help was requested (help text is
  /// written to stdout). Throws btmf::ConfigError on unknown options,
  /// missing values, or repeated arguments.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  /// A count option: throws btmf::ConfigError unless the value lies in
  /// [min, UINT_MAX], so no value wraps in the cast to unsigned.
  [[nodiscard]] unsigned get_count(const std::string& name,
                                   unsigned min = 1) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Renders the --help text.
  [[nodiscard]] std::string help_text() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string program_;
  std::string summary_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;

  const Option& find_option(const std::string& name) const;
};

}  // namespace btmf::util
