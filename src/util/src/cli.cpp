#include "btmf/util/cli.h"

#include <iostream>
#include <limits>
#include <sstream>

#include "btmf/util/check.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"

namespace btmf::util {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  BTMF_CHECK_MSG(!options_.contains(name), "duplicate option --" + name);
  options_[name] = Option{default_value, help, /*is_flag=*/false};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  BTMF_CHECK_MSG(!options_.contains(name), "duplicate flag --" + name);
  options_[name] = Option{"", help, /*is_flag=*/true};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help_text();
      return false;
    }
    BTMF_CHECK_MSG(starts_with(arg, "--"),
                   "unexpected positional argument '" + arg + "'");
    arg.erase(0, 2);

    std::string name = arg;
    std::optional<std::string> inline_value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }

    const auto it = options_.find(name);
    BTMF_CHECK_MSG(it != options_.end(), "unknown option --" + name);
    BTMF_CHECK_MSG(!values_.contains(name), "option --" + name + " repeated");

    if (it->second.is_flag) {
      BTMF_CHECK_MSG(!inline_value.has_value(),
                     "flag --" + name + " does not take a value");
      values_.insert_or_assign(name, std::string("1"));
    } else if (inline_value.has_value()) {
      values_.insert_or_assign(name, *inline_value);
    } else {
      BTMF_CHECK_MSG(i + 1 < argc, "option --" + name + " needs a value");
      values_.insert_or_assign(name, std::string(argv[++i]));
    }
  }
  return true;
}

const ArgParser::Option& ArgParser::find_option(const std::string& name) const {
  const auto it = options_.find(name);
  BTMF_CHECK_MSG(it != options_.end(), "undeclared option --" + name);
  return it->second;
}

std::string ArgParser::get(const std::string& name) const {
  const Option& opt = find_option(name);
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : opt.default_value;
}

double ArgParser::get_double(const std::string& name) const {
  return parse_double(get(name), "--" + name);
}

long long ArgParser::get_int(const std::string& name) const {
  return parse_int(get(name), "--" + name);
}

unsigned ArgParser::get_count(const std::string& name, unsigned min) const {
  const long long raw = get_int(name);
  if (raw < min || raw > std::numeric_limits<unsigned>::max()) {
    throw ConfigError("--" + name + " must lie in [" + std::to_string(min) +
                      ", " +
                      std::to_string(std::numeric_limits<unsigned>::max()) +
                      "] (got " + std::to_string(raw) + ")");
  }
  return static_cast<unsigned>(raw);
}

bool ArgParser::get_flag(const std::string& name) const {
  const Option& opt = find_option(name);
  BTMF_CHECK_MSG(opt.is_flag, "--" + name + " is not a flag");
  return values_.contains(name);
}

std::string ArgParser::help_text() const {
  std::ostringstream os;
  os << program_ << " — " << summary_ << "\n\noptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_flag) os << " <value> (default: " << opt.default_value << ')';
    os << "\n      " << opt.help << '\n';
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

}  // namespace btmf::util
