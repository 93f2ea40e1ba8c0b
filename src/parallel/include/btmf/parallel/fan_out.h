// Index fan-out onto idle cores: the one way the library puts work on
// cores. Sweep points, simulator replications, the shards of a sharded
// kernel run (one call per run) and stochastic-epidemic replications
// all run through it.
//
// fan_out runs a body over [0, n) on worker threads it starts for the
// call; the calling thread lends its core to worker 0 and waits until
// every worker has joined. It runs indices itself only when no thread
// can be started. Worker 0 is a started thread because sweep points and
// shard kernels allocate: on a 4-vCPU host, with the caller running
// worker 0's indices, fluid-sweep read 4% fewer evaluations/s and ~10%
// more peak RSS and sim-replicate's peak RSS rose too, while starting
// worker 0 as well matched the pool-based numbers (docs/SCALE.md).
// Starting the workers costs tens of microseconds per call.
//
// Workers come from a process-wide count of idle cores, starting at
// hardware_concurrency(). Every worker holds one core, worker 0 the
// caller's, and a call takes further workers only from the cores left,
// without blocking. So a caller alone in the process runs on every core,
// while nested calls (a sweep point whose evaluation fans out) and
// callers that already fill the cores (daemon workers all evaluating at
// once) run on worker 0 alone. A worker beyond worker 0 starts only
// while fan_out's workers number fewer than the cores. Threads busy with
// anything else are not counted, and the count is per process: a forked
// child (--isolate) starts from its parent's count at the fork, so
// concurrent isolated children each fan out on their own.
//
// The body receives the index and the worker slot running it, so results
// go to per-index slots and per-worker buffers can be allocated by the
// caller before the fan-out: the output is bitwise independent of how
// indices were spread over workers.
#pragma once

#include <cstddef>
#include <functional>

namespace btmf::parallel {

using FanOutBody =
    std::function<void(std::size_t index, std::size_t worker)>;

/// Worker slots fan_out(n, ...) can use: min(n, hardware_concurrency()),
/// so per-worker buffers sized by it cover every worker.
[[nodiscard]] std::size_t fan_out_width(std::size_t n);

/// Runs body(index, worker) once for every index in [0, n) on workers
/// 0, 1, ... started for the call: worker 0 on the caller's core, up to
/// min(fan_out_width(n), max_workers) - 1 more on idle cores
/// (max_workers 0 = no cap). Workers claim indices in increasing order
/// from one atomic counter. Once a body throws, no further index is
/// claimed; after every worker has joined, the exception of the lowest
/// index that threw is rethrown, which is the one a serial loop over
/// [0, n) would have thrown. The cores return to the count before
/// fan_out returns or throws.
void fan_out(std::size_t n, std::size_t max_workers, const FanOutBody& body);

/// fan_out with no cap on the workers.
void fan_out(std::size_t n, const FanOutBody& body);

namespace detail {

/// Cores no fan_out worker holds right now; negative while more callers
/// than cores are inside fan_out.
[[nodiscard]] std::ptrdiff_t idle_cores();

}  // namespace detail

}  // namespace btmf::parallel
