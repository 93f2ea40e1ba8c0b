#include "btmf/robust/watchdog.h"

#include <chrono>
#include <future>
#include <thread>

#include "btmf/util/strings.h"

namespace btmf::robust {
namespace {

/// Runs `fn` on the calling thread, classifying what it throws.
Attempt run_inline(const std::function<Values()>& fn) {
  Attempt attempt;
  try {
    attempt.values = fn();
  } catch (...) {
    attempt.failure = classify_active_exception();
  }
  return attempt;
}

}  // namespace

Attempt run_with_deadline(const std::function<Values()>& fn,
                          double timeout_s) {
  check_deadline(timeout_s);
  // No deadline: run inline, bit-for-bit the unsupervised path.
  if (timeout_s <= 0.0) return run_inline(fn);

  // The worker owns a copy of `fn` and, through the packaged task, a
  // share of the result's state. Together with the header's ownership
  // contract (self-contained closures all the way down the task chain),
  // this means an abandoned worker only ever touches memory it owns.
  std::packaged_task<Attempt()> job([fn] { return run_inline(fn); });
  std::future<Attempt> result = job.get_future();
  std::thread worker(std::move(job));
  if (result.wait_for(std::chrono::duration<double>(timeout_s)) ==
      std::future_status::timeout) {
    // Deadline passed: abandon the worker; its result is discarded.
    worker.detach();
    return {{FailureKind::kTimeout,
             "evaluation exceeded " + util::format_double(timeout_s) +
                 "s deadline (abandoned)"},
            {}};
  }
  worker.join();
  return result.get();
}

}  // namespace btmf::robust
