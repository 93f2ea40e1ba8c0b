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

/// The caller's core, taken unconditionally (it runs either way), plus
/// up to `wanted` helper cores from those still idle, taken without
/// blocking. All of them go back when the lease ends.
class CoreLease {
 public:
  explicit CoreLease(std::size_t wanted) {
    std::ptrdiff_t available = idle().fetch_sub(1) - 1;
    do {
      helpers_ = std::clamp<std::ptrdiff_t>(
          available, 0, static_cast<std::ptrdiff_t>(wanted));
      if (helpers_ == 0) return;
    } while (!idle().compare_exchange_weak(available, available - helpers_));
  }
  CoreLease(const CoreLease&) = delete;
  CoreLease& operator=(const CoreLease&) = delete;
  ~CoreLease() { idle() += 1 + helpers_; }

  [[nodiscard]] std::size_t helpers() const {
    return static_cast<std::size_t>(helpers_);
  }

 private:
  std::ptrdiff_t helpers_ = 0;
};

}  // namespace

std::size_t fan_out_width(std::size_t n) { return std::min(n, cores()); }

void fan_out(std::size_t n, const FanOutBody& body) {
  detail::fan_out(n, fan_out_width(n), body);
}

namespace detail {

std::ptrdiff_t idle_cores() { return idle().load(); }

void fan_out(std::size_t n, std::size_t max_workers, const FanOutBody& body) {
  if (n == 0) return;
  // Outlives the helper threads, so no core returns to the count while a
  // helper still runs on it.
  const CoreLease lease(
      std::min(fan_out_width(n), std::max<std::size_t>(1, max_workers)) - 1);

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
    std::vector<std::jthread> helpers;  // joined when the scope ends
    helpers.reserve(lease.helpers());
    for (std::size_t worker = 1; worker <= lease.helpers(); ++worker) {
      try {
        helpers.emplace_back(work, worker);
      } catch (...) {
        break;  // no thread to be had: run with the helpers already started
      }
    }
    work(0);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

}  // namespace btmf::parallel
