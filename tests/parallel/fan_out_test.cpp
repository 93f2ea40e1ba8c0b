#include "btmf/parallel/fan_out.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace btmf::parallel {
namespace {

std::size_t cores() {
  return std::max(1U, std::thread::hardware_concurrency());
}

/// Raises `highest` to `value` if it is larger.
void record_max(std::atomic<std::size_t>& highest, std::size_t value) {
  std::size_t seen = highest.load();
  while (value > seen && !highest.compare_exchange_weak(seen, value)) {
  }
}

TEST(FanOutTest, WidthIsTheIndexCountCappedAtTheCores) {
  EXPECT_EQ(fan_out_width(0), 0u);
  EXPECT_EQ(fan_out_width(1), 1u);
  EXPECT_EQ(fan_out_width(1000), cores());
}

TEST(FanOutTest, EveryIndexRunsExactlyOnceForWorkerCaps1To8) {
  constexpr std::size_t kIndices = 37;  // a multiple of no cap above 1
  for (std::size_t cap = 1; cap <= 8; ++cap) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    std::vector<std::atomic<int>> hits(kIndices);
    std::atomic<std::size_t> highest_worker{0};
    fan_out(kIndices, cap, [&](std::size_t index, std::size_t worker) {
      ++hits[index];
      record_max(highest_worker, worker);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_LT(highest_worker.load(), std::min(cap, fan_out_width(kIndices)));
  }
}

TEST(FanOutTest, WorkersStayInsideTheWidth) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u}) {
    std::atomic<std::size_t> highest_worker{0};
    fan_out(n, [&](std::size_t, std::size_t worker) {
      record_max(highest_worker, worker);
    });
    EXPECT_LT(highest_worker.load(), fan_out_width(n)) << "n " << n;
  }
}

TEST(FanOutTest, ZeroIndicesRunsNothing) {
  std::atomic<int> calls{0};
  fan_out(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(FanOutTest, RethrowsTheLowestIndexExceptionAfterEveryThreadJoins) {
  std::atomic<int> running{0};
  try {
    fan_out(64, [&](std::size_t index, std::size_t) {
      ++running;
      struct Leave {
        std::atomic<int>& running;
        ~Leave() { --running; }
      } leave{running};
      if (index == 9) {
        // Let a later index throw first when helpers are running.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("9");
      }
      if (index == 40) throw std::runtime_error("40");
    });
    FAIL() << "fan_out swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "9");
    EXPECT_EQ(running.load(), 0) << "a body was still running";
  }
}

TEST(FanOutTest, CoresAreRestoredAfterwardsEvenAfterAnException) {
  const std::ptrdiff_t before = detail::idle_cores();
  std::atomic<std::ptrdiff_t> lowest{before};
  fan_out(32, [&](std::size_t, std::size_t) {
    std::ptrdiff_t seen = lowest.load();
    const std::ptrdiff_t now = detail::idle_cores();
    while (now < seen && !lowest.compare_exchange_weak(seen, now)) {
    }
  });
  EXPECT_EQ(detail::idle_cores(), before);
  EXPECT_LT(lowest.load(), before) << "the caller did not hold a core";

  EXPECT_THROW(fan_out(32,
                       [](std::size_t index, std::size_t) {
                         if (index % 5 == 3) throw std::runtime_error("x");
                       }),
               std::runtime_error);
  EXPECT_EQ(detail::idle_cores(), before);
}

/// Runs `fill` on its own threads until every core is held, then checks
/// that a fan_out meanwhile runs every index on worker 0 alone.
template <typename Fill>
void expect_serial_while_cores_are_full(std::size_t fillers, Fill fill) {
  std::atomic<bool> release{false};
  std::vector<std::thread> holders;
  for (std::size_t h = 0; h < fillers; ++h) {
    holders.emplace_back([&] { fill(release); });
  }
  while (detail::idle_cores() > 0) std::this_thread::yield();
  std::vector<std::size_t> workers(16, 99);
  fan_out(workers.size(), [&](std::size_t index, std::size_t worker) {
    workers[index] = worker;
  });
  release.store(true);
  for (std::thread& h : holders) h.join();
  for (const std::size_t w : workers) EXPECT_EQ(w, 0u);
}

void hold_until(const std::atomic<bool>& release) {
  while (!release.load()) std::this_thread::yield();
}

TEST(FanOutTest, OneCallerHoldingEveryCoreLeavesNoHelperForTheNext) {
  expect_serial_while_cores_are_full(1, [](const std::atomic<bool>& release) {
    fan_out(cores(), [&](std::size_t, std::size_t) { hold_until(release); });
  });
}

TEST(FanOutTest, CallersThatFillTheCoresStartNoHelper) {
  // One single-index caller per core: none starts a helper, yet together
  // they hold every core, as daemon workers all evaluating at once do.
  expect_serial_while_cores_are_full(
      cores(), [](const std::atomic<bool>& release) {
        fan_out(1, [&](std::size_t, std::size_t) { hold_until(release); });
      });
}

TEST(FanOutTest, NoBodyRunsOnTheCallingThread) {
  // The caller lends its core to a started worker 0 and waits, whatever
  // the cap and whether or not idle cores remain for further workers.
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t cap : {0u, 1u, 2u}) {
    for (const std::size_t n : {1u, 16u}) {
      std::atomic<int> on_caller{0};
      fan_out(n, cap, [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() == caller) ++on_caller;
      });
      EXPECT_EQ(on_caller.load(), 0) << "cap " << cap << " n " << n;
    }
  }
}

TEST(FanOutTest, NestedCallsFromMoreOuterIndicesThanCoresFinish) {
  // Every outer body fans out again while the outer workers hold every
  // core: the inner calls run on their worker 0 alone and never wait on
  // a worker, so all of them finish.
  const std::ptrdiff_t before = detail::idle_cores();
  std::vector<std::size_t> sums(2 * cores() + 1, 0);
  fan_out(sums.size(), [&](std::size_t outer, std::size_t) {
    std::atomic<std::size_t> sum{0};
    fan_out(200, [&](std::size_t index, std::size_t) { sum += index; });
    sums[outer] = sum.load();
  });
  for (const std::size_t sum : sums) EXPECT_EQ(sum, 199u * 200u / 2u);
  EXPECT_EQ(detail::idle_cores(), before);
}

}  // namespace
}  // namespace btmf::parallel
