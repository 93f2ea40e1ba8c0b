// The supervisor: deadline + isolation + retry around one computation.
//
// supervise() is the single entry point the sweep engine and the serve
// daemon use per task: it runs the attempt inline, under the watchdog or
// in a forked worker, classifies what went wrong, and retries the
// retryable at once, handing each attempt its number so the task can
// escalate (robust::escalate_spec tightens solver tolerances). Results
// are NEVER a function of timing: the same task with the same options
// either succeeds with identical values or fails with the same kind.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "btmf/robust/failure.h"

namespace btmf::obs {
class MetricsRegistry;
}  // namespace btmf::obs

namespace btmf::robust {

struct SupervisorOptions {
  /// Per-attempt wall-clock deadline in seconds, at most kMaxTimeoutS
  /// (one week); any finite value <= 0 disables it. An attempt still
  /// running at the deadline is kTimeout in both modes: with isolate the
  /// child is SIGKILLed (hard preemption), in-process the worker thread
  /// is abandoned to finish on its own.
  double timeout_s = 0.0;
  /// Run every attempt in a forked worker subprocess (--isolate): crashes
  /// are contained and reported as kCrash instead of killing the sweep.
  /// On platforms without fork() an isolate request fails typed as
  /// kUnsupported — never a silent fallback to the in-process watchdog.
  bool isolate = false;
  /// Attempts after the first (0 = never retry), run back to back.
  unsigned retries = 0;

  /// Optional metrics sink (non-owning; nullptr = inert): increments
  /// robust.retries / robust.timeouts / robust.crashes.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Identity + attempt number handed to the task so the compute function
/// can escalate (tighter tolerances, alternate strategy) on retries.
struct TaskContext {
  std::uint64_t key = 0;   ///< stable task identity
  unsigned attempt = 0;    ///< 0 = first try, 1 = first retry, ...
};

/// The supervised computation: must be deterministic per (task, attempt)
/// and self-contained — capture by value, or reference only
/// process-lifetime objects. An isolated attempt runs it in a forked
/// child, and a watchdogged attempt runs a *copy* on a worker thread that,
/// if abandoned, outlives every caller frame; references to caller locals
/// become use-after-free the moment a deadline passes.
using Task = std::function<Values(const TaskContext&)>;

struct SuperviseOutcome {
  Failure failure;         ///< kNone on success
  Values values;
  unsigned attempts = 1;   ///< total tries made (>= 1)
  unsigned timeouts = 0;   ///< attempts lost to the deadline
  unsigned crashes = 0;    ///< attempts lost to a worker crash

  [[nodiscard]] bool ok() const { return failure.ok(); }
};

/// Runs `task` under `options`. Retries everything retryable() up to
/// options.retries times, at once; permanent failures (kUnsupported)
/// return immediately. With the default options this is a zero-overhead
/// inline call with exception classification only. A non-finite
/// options.timeout_s, or one past kMaxTimeoutS, throws btmf::ConfigError
/// before the first attempt.
[[nodiscard]] SuperviseOutcome supervise(const Task& task,
                                         const SupervisorOptions& options,
                                         std::uint64_t key);

}  // namespace btmf::robust
