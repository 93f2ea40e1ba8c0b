#include "btmf/robust/failure.h"

#include <cmath>
#include <exception>

#include "btmf/util/strings.h"

namespace btmf::robust {

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kError: return "error";
    case FailureKind::kTimeout: return "timeout";
    case FailureKind::kCrash: return "crash";
    case FailureKind::kUnsupported: return "unsupported";
    case FailureKind::kCacheCorrupt: return "cache-corrupt";
  }
  return "error";
}

FailureKind failure_kind_from_string(std::string_view token) {
  for (FailureKind kind : {FailureKind::kNone, FailureKind::kError,
                           FailureKind::kTimeout, FailureKind::kCrash,
                           FailureKind::kUnsupported,
                           FailureKind::kCacheCorrupt}) {
    if (token == to_string(kind)) return kind;
  }
  throw ConfigError("unknown failure kind: '" + std::string(token) + "'");
}

bool retryable(FailureKind kind) {
  switch (kind) {
    case FailureKind::kError:
    case FailureKind::kTimeout:
    case FailureKind::kCrash:
    case FailureKind::kCacheCorrupt:
      return true;
    case FailureKind::kNone:
    case FailureKind::kUnsupported:
      return false;
  }
  return false;
}

void check_deadline(double timeout_s) {
  if (!std::isfinite(timeout_s) || timeout_s > kMaxTimeoutS) {
    throw ConfigError("a deadline must be finite and at most " +
                      util::format_double(kMaxTimeoutS) +
                      " s (one week); got " + util::format_double(timeout_s));
  }
}

Failure classify_active_exception() {
  try {
    throw;
  } catch (const ConfigError& e) {
    return {FailureKind::kUnsupported, e.what()};
  } catch (const std::exception& e) {
    return {FailureKind::kError, e.what()};
  } catch (...) {
    return {FailureKind::kError, "unknown exception"};
  }
}

std::string escape_line(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string unescape_line(std::string_view line) {
  std::string out;
  out.reserve(line.size());
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] != '\\' || i + 1 == line.size()) {
      out += line[i];
      continue;
    }
    ++i;
    switch (line[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case '\\': out += '\\'; break;
      default: out += line[i]; break;
    }
  }
  return out;
}

}  // namespace btmf::robust
