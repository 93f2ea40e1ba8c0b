#include "btmf/parallel/fan_out.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace btmf::parallel {

namespace {

std::size_t cores() {
  static const std::size_t count =
      std::max(1U, std::thread::hardware_concurrency());
  return count;
}

std::atomic<std::ptrdiff_t>& idle() {
  static std::atomic<std::ptrdiff_t> count{
      static_cast<std::ptrdiff_t>(cores())};
  return count;
}

/// One core per worker: the caller's, lent to worker 0 and taken
/// unconditionally (the call runs either way), plus up to `wanted` - 1
/// more from those still idle, taken without blocking. All of them go
/// back when the lease ends.
class CoreLease {
 public:
  explicit CoreLease(std::size_t wanted) {
    std::ptrdiff_t available = idle().fetch_sub(1) - 1;
    do {
      extra_ = std::clamp<std::ptrdiff_t>(
          available, 0, static_cast<std::ptrdiff_t>(wanted) - 1);
      if (extra_ == 0) return;
    } while (!idle().compare_exchange_weak(available, available - extra_));
  }
  CoreLease(const CoreLease&) = delete;
  CoreLease& operator=(const CoreLease&) = delete;
  ~CoreLease() { idle() += 1 + extra_; }

  [[nodiscard]] std::size_t workers() const {
    return 1 + static_cast<std::size_t>(extra_);
  }

 private:
  std::ptrdiff_t extra_ = 0;
};

}  // namespace

std::size_t fan_out_width(std::size_t n) { return std::min(n, cores()); }

void fan_out(std::size_t n, const FanOutBody& body) { fan_out(n, 0, body); }

void fan_out(std::size_t n, std::size_t max_workers, const FanOutBody& body) {
  if (n == 0) return;
  const std::size_t width = max_workers == 0
                                ? fan_out_width(n)
                                : std::min(fan_out_width(n), max_workers);
  // Outlives the workers, so no core returns to the count while a worker
  // still runs on it.
  const CoreLease lease(width);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = n;
  std::exception_ptr error;
  const auto work = [&](std::size_t worker) {
    while (!failed) {
      const std::size_t index = next++;
      if (index >= n) return;
      try {
        body(index, worker);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (index < error_index) {
          error_index = index;
          error = std::current_exception();
        }
        failed = true;
      }
    }
  };
  {
    std::vector<std::jthread> workers;  // joined when the scope ends
    workers.reserve(lease.workers());
    for (std::size_t worker = 0; worker < lease.workers(); ++worker) {
      try {
        workers.emplace_back(work, worker);
      } catch (...) {
        break;  // no thread to be had: run with the workers started
      }
    }
    if (workers.empty()) work(0);  // none started: the caller runs them all
  }
  if (error) std::rethrow_exception(error);
}

namespace detail {

std::ptrdiff_t idle_cores() { return idle().load(); }

}  // namespace detail

}  // namespace btmf::parallel
