// Crash isolation: run one evaluation in a forked worker subprocess.
//
// The only way to survive a segfault, an OOM kill, or a hard-hung solver
// is a process boundary. run_isolated forks, runs the supervised function
// in the child, and streams the result back over a pipe in the same
// line-oriented escaped format the checkpoint journal uses. The parent
// polls the pipe against the deadline; on expiry the child is SIGKILLed —
// this is *hard* preemption, unlike the cooperative in-process watchdog.
// A child that dies on a signal (WIFSIGNALED) is reported as kCrash with
// the signal name; crashes are contained, reported, and retryable instead
// of fatal to the sweep.
//
// Cost: one fork + pipe round trip per evaluation, and the child recomputes
// from a cold start (no result memory is shared back except the pipe
// payload). That is why isolation is opt-in (--isolate) rather than the
// default. Fork is unavailable on non-POSIX hosts; isolation_supported()
// reports that, and run_isolated there returns a typed kUnsupported
// failure — it never degrades silently to the in-process watchdog.
//
// POSIX caveat: sweeps fork from fan_out workers while sibling threads
// run arbitrary compute, and after a multithreaded fork() the child may
// formally only call async-signal-safe functions — yet the child runs a
// full evaluation (malloc, locks, iostreams). glibc, the supported
// toolchain, registers atfork handlers that make its allocator usable in
// the child, and run_isolated serializes its pipe/fork window so
// concurrent workers cannot leak pipe fds into each other's children. On
// libcs without such handlers (musl, macOS system libraries) a child can
// deadlock if a sibling thread held the heap or locale lock at fork time:
// there, combine --isolate with --jobs 1. See docs/ROBUSTNESS.md.
#pragma once

#include <functional>

#include "btmf/robust/failure.h"

namespace btmf::robust {

struct IsolatedOutcome {
  Failure failure;   ///< kNone, or kCrash / kTimeout / kError / ...
  Values values;     ///< the payload when failure.ok()
};

/// Whether fork-based isolation works on this platform/build.
[[nodiscard]] bool isolation_supported();

/// Runs `fn` in a forked child. timeout_s <= 0 means no deadline.
/// Returns kCrash when the child dies on a signal or exits without a
/// parseable report, kTimeout when the deadline passes (child SIGKILLed),
/// otherwise the child's own classified failure or its values.
/// Throws btmf::IoError only for parent-side plumbing failures (pipe or
/// fork exhaustion), never for child misbehaviour.
[[nodiscard]] IsolatedOutcome run_isolated(const std::function<Values()>& fn,
                                           double timeout_s);

}  // namespace btmf::robust
