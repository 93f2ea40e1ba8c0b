// Wall-clock deadline enforcement for in-process evaluations.
//
// C++ offers no safe way to preempt a running thread, and no library loop
// polls for cancellation, so the in-process watchdog does not try to stop
// anything: the supervised function runs on a worker thread, and when the
// deadline passes first the worker is detached and the attempt reported as
// kTimeout at once — the rule run_isolated (isolate.h) applies with
// SIGKILL, so both modes give the same answer for the same overrun. The
// detached thread keeps burning a core until the function returns; its
// result is discarded. Hard preemption needs a process boundary: that is
// what isolate.h provides, and why --isolate exists. See
// docs/ROBUSTNESS.md.
#pragma once

#include <functional>

#include "btmf/robust/failure.h"

namespace btmf::robust {

/// Runs `fn` with a wall-clock deadline. A finite timeout_s <= 0 disables the
/// watchdog entirely: `fn` runs inline on the calling thread (no worker
/// thread — zero overhead, identical to unsupervised code). With a
/// deadline, `fn` runs on a worker thread; if it has not returned by the
/// deadline the worker is abandoned and the attempt is kTimeout.
/// Exceptions from `fn` are classified via classify_active_exception().
/// A non-finite deadline, or one past kMaxTimeoutS, throws
/// btmf::ConfigError before anything runs.
///
/// OWNERSHIP: with a deadline, `fn` must be self-contained — capture by
/// value, or reference only process-lifetime objects. The worker runs a
/// *copy* of `fn`, and an abandoned worker keeps executing that copy
/// after run_with_deadline (and the caller's whole frame, transitively)
/// has returned; a closure holding references to caller locals is a
/// use-after-free in exactly the overrun the watchdog exists for.
[[nodiscard]] Attempt run_with_deadline(const std::function<Values()>& fn,
                                        double timeout_s);

}  // namespace btmf::robust
