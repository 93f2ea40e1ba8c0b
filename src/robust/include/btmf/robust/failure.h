// Typed failure taxonomy of the execution supervisor.
//
// Every way a supervised evaluation can go wrong gets one enumerator, so
// callers (the sweep engine, the reproduce registry, the CLI) can react by
// *kind* — retry a timeout, quarantine a corrupt cache entry, give up on a
// typed capability refusal — instead of string-matching exception text.
// The taxonomy extends the model layer's OutcomeStatus (kOk / kUnsupported
// / kFailed) with the failure modes that only exist once evaluations run
// under deadlines, in worker subprocesses, and against an on-disk cache.
// See docs/ROBUSTNESS.md.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "btmf/util/error.h"

namespace btmf::robust {

enum class FailureKind {
  kNone,          ///< no failure — the attempt produced a result
  kError,         ///< evaluation threw (solver divergence, ...); retryable
  kTimeout,       ///< wall-clock deadline exceeded; retryable
  kCrash,         ///< worker subprocess died on a signal; retryable
  kUnsupported,   ///< typed capability/configuration refusal; permanent
  kCacheCorrupt,  ///< cache entry failed verification and was quarantined
};

/// Stable lower-case strings ("timeout", "crash", ...) for journals,
/// tables and logs; round-trips through failure_kind_from_string.
[[nodiscard]] const char* to_string(FailureKind kind);

/// Inverse of to_string; throws btmf::ConfigError on an unknown token.
[[nodiscard]] FailureKind failure_kind_from_string(std::string_view token);

/// Whether another attempt could plausibly succeed. Deterministic misuse
/// (kUnsupported) never benefits from a retry; everything transient —
/// timeouts, crashes, solver failures (an escalation hook may tighten
/// tolerances) — does.
[[nodiscard]] bool retryable(FailureKind kind);

/// One supervised computation's payload: named doubles. Mirrors
/// sweep::PointResult::values without depending on btmf::sweep (the
/// supervisor sits *below* the sweep engine in the layering).
using Values = std::map<std::string, double>;

struct Failure {
  FailureKind kind = FailureKind::kNone;
  std::string message;

  [[nodiscard]] bool ok() const { return kind == FailureKind::kNone; }
};

/// What one attempt produced, in either supervision mode: the in-process
/// watchdog (watchdog.h) and the forked worker (isolate.h).
struct Attempt {
  Failure failure;  ///< kNone on success
  Values values;    ///< the payload when failure.ok()
};

/// The longest per-attempt deadline the supervisor takes: one week.
/// std::chrono turns a deadline into integer nanoseconds (int64 holds
/// about 292 years), so a longer one would overflow that conversion.
inline constexpr double kMaxTimeoutS = 7.0 * 24.0 * 3600.0;

/// Throws btmf::ConfigError unless timeout_s is finite and at most
/// kMaxTimeoutS. Any finite value <= 0, which means no deadline, passes.
void check_deadline(double timeout_s);

/// Maps the in-flight exception to a Failure. Call from inside a catch
/// block (or any context where `throw;` rethrows): ConfigError ->
/// kUnsupported (bad inputs stay bad on retry), any other btmf::Error or
/// std::exception -> kError.
[[nodiscard]] Failure classify_active_exception();

/// One-line escaping for messages embedded in line-oriented formats (the
/// checkpoint journal, the isolation pipe protocol): backslash and
/// newline are escaped so any message survives a round trip verbatim.
[[nodiscard]] std::string escape_line(std::string_view text);
[[nodiscard]] std::string unescape_line(std::string_view line);

}  // namespace btmf::robust
