// Index fan-out onto idle cores.
//
// fan_out runs a body over [0, n) on the calling thread plus helper
// threads it starts for the call, as ShardedKernel starts its pool per
// run. It does not use global_pool(): `btmf_tool sweep` runs its points
// on that pool, and a point that blocked on work queued behind it could
// deadlock the pool; a fork-isolated child also inherits the pool object
// without its worker threads.
//
// Helpers come from a process-wide count of idle cores, starting at
// hardware_concurrency(). Every thread inside fan_out holds one core,
// the calling thread included, and a caller takes helpers only from the
// cores left, without blocking. So a caller alone in the process runs on
// every core, while callers that already fill the cores (daemon or sweep
// workers all evaluating at once) run serially and start no helper. A
// helper starts only while the threads inside fan_out number fewer than
// the cores, so at most cores - 1 helpers run at once. Threads busy with
// anything else are not counted, and the count is per process: a forked
// child (--isolate) starts from its parent's count at the fork, so
// concurrent isolated children each fan out on their own.
//
// The body receives the index and the worker slot running it (0 is the
// calling thread), so results go to per-index slots and per-worker
// buffers can be allocated by the caller before the fan-out: the output
// is bitwise independent of how indices were spread over workers.
#pragma once

#include <cstddef>
#include <functional>

namespace btmf::parallel {

using FanOutBody =
    std::function<void(std::size_t index, std::size_t worker)>;

/// Worker slots fan_out(n, ...) can use: min(n, hardware_concurrency()),
/// so per-worker buffers sized by it cover every worker.
[[nodiscard]] std::size_t fan_out_width(std::size_t n);

/// Runs body(index, worker) once for every index in [0, n), on the
/// calling thread (worker 0) plus up to fan_out_width(n) - 1 helper
/// threads (workers 1, 2, ...) taken from the idle cores. Workers claim
/// indices in increasing order from one atomic counter. Once a body
/// throws, no further index is claimed; after every thread has joined,
/// the exception of the lowest index that threw is rethrown, which is
/// the one a serial loop over [0, n) would have thrown. The cores return
/// to the count before fan_out returns or throws.
void fan_out(std::size_t n, const FanOutBody& body);

namespace detail {

/// fan_out with the workers further capped at max_workers (at least 1).
void fan_out(std::size_t n, std::size_t max_workers, const FanOutBody& body);

/// Cores no fan_out thread holds right now; negative while more callers
/// than cores are inside fan_out.
[[nodiscard]] std::ptrdiff_t idle_cores();

}  // namespace detail

}  // namespace btmf::parallel
