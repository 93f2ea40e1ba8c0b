#include "btmf/robust/supervisor.h"

#include "btmf/obs/metrics.h"
#include "btmf/robust/isolate.h"
#include "btmf/robust/watchdog.h"

namespace btmf::robust {
namespace {

/// One attempt: inline, watchdogged, or isolated, per the options.
Attempt run_attempt(const Task& task, const TaskContext& context,
                    const SupervisorOptions& options) {
  if (options.isolate) {
    // Always route an isolate request through run_isolated: on a platform
    // without fork() it returns a typed kUnsupported failure instead of
    // silently degrading to the in-process watchdog the user explicitly
    // asked to avoid. The child shares this address space, so capturing
    // the task by reference is safe here.
    return run_isolated([&task, context] { return task(context); },
                        options.timeout_s);
  }
  // The watchdog worker can be abandoned (detached) and outlive every
  // caller frame, so the closure it runs must own the Task by value — a
  // runaway thread then executes a private copy of the whole task chain,
  // never freed caller memory.
  return run_with_deadline([task, context] { return task(context); },
                           options.timeout_s);
}

}  // namespace

SuperviseOutcome supervise(const Task& task, const SupervisorOptions& options,
                           std::uint64_t key) {
  check_deadline(options.timeout_s);
  SuperviseOutcome result;
  result.attempts = 0;

  obs::MetricId retries_id{}, timeouts_id{}, crashes_id{};
  if (options.metrics != nullptr) {
    retries_id = options.metrics->counter("robust.retries");
    timeouts_id = options.metrics->counter("robust.timeouts");
    crashes_id = options.metrics->counter("robust.crashes");
  }

  for (unsigned attempt = 0;; ++attempt) {
    if (attempt > 0 && options.metrics != nullptr) {
      options.metrics->add(retries_id);
    }
    ++result.attempts;
    Attempt outcome = run_attempt(task, {key, attempt}, options);
    if (outcome.failure.kind == FailureKind::kTimeout) {
      ++result.timeouts;
      if (options.metrics != nullptr) options.metrics->add(timeouts_id);
    } else if (outcome.failure.kind == FailureKind::kCrash) {
      ++result.crashes;
      if (options.metrics != nullptr) options.metrics->add(crashes_id);
    }
    result.failure = std::move(outcome.failure);
    if (result.failure.ok()) {
      result.values = std::move(outcome.values);
      return result;
    }
    if (!retryable(result.failure.kind) || attempt == options.retries) {
      return result;
    }
  }
}

}  // namespace btmf::robust
