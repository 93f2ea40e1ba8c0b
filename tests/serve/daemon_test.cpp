#include "btmf/serve/daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "btmf/robust/isolate.h"
#include "btmf/serve/client.h"
#include "btmf/serve/protocol.h"
#include "btmf/util/error.h"

namespace btmf::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!serve_supported()) GTEST_SKIP() << "POSIX sockets unavailable";
  }

  DaemonOptions base_options(const std::string& name) {
    dir_ = fresh_dir("serve_daemon_" + name);
    DaemonOptions options;
    options.endpoint = Endpoint::parse("unix:" + dir_ + "/d.sock");
    options.cache_dir = dir_ + "/cache";
    options.workers = 2;
    return options;
  }

  model::ScenarioSpec quick_spec(std::uint64_t seed = 42) {
    model::ScenarioSpec spec;
    spec.scheme = fluid::SchemeKind::kCmfsd;
    spec.correlation = 0.9;
    spec.rho = 0.1;
    spec.seed = seed;
    return spec;
  }

  std::string dir_;
};

TEST_F(ServeDaemonTest, EvaluateMatchesTheDirectBackendBitwise) {
  Daemon daemon(base_options("bitwise"));
  daemon.start();
  Client client = Client::connect(daemon.endpoint());
  const model::ScenarioSpec spec = quick_spec();

  const EvalReply reply = client.evaluate("fluid-equilibrium", spec);
  ASSERT_TRUE(reply.ok) << reply.message;
  EXPECT_FALSE(reply.cached);
  const robust::Values direct = default_eval("fluid-equilibrium", spec);
  ASSERT_EQ(reply.values.size(), direct.size());
  for (const auto& [name, value] : direct) {
    // Bit-identical across the wire: exact round-trip doubles end to end.
    EXPECT_EQ(reply.at(name), value) << name;
  }
  daemon.drain();
}

TEST_F(ServeDaemonTest, SecondIdenticalRequestIsACacheHit) {
  Daemon daemon(base_options("cachehit"));
  daemon.start();
  Client client = Client::connect(daemon.endpoint());
  const EvalReply first = client.evaluate("fluid-equilibrium", quick_spec());
  const EvalReply second =
      client.evaluate("fluid-equilibrium", quick_spec());
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.values, second.values);

  const obs::MetricsSnapshot snapshot = daemon.stats();
  EXPECT_EQ(snapshot.counters.at("serve.cache_hit"), 1u);
  EXPECT_EQ(snapshot.counters.at("serve.evaluations"), 1u);
  daemon.drain();
}

TEST_F(ServeDaemonTest, ColdCacheSurvivesARestartViaTheDisk) {
  DaemonOptions options = base_options("restart");
  {
    Daemon daemon(options);
    daemon.start();
    Client client = Client::connect(daemon.endpoint());
    ASSERT_TRUE(client.evaluate("fluid-equilibrium", quick_spec()).ok);
    daemon.drain();
  }
  Daemon reborn(options);
  reborn.start();
  Client client = Client::connect(reborn.endpoint());
  const EvalReply reply = client.evaluate("fluid-equilibrium", quick_spec());
  ASSERT_TRUE(reply.ok);
  EXPECT_TRUE(reply.cached) << "disk cache must outlive the daemon";
  reborn.drain();
}

TEST_F(ServeDaemonTest, NIdenticalConcurrentRequestsCostOneEvaluation) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRounds = 3;
  DaemonOptions options = base_options("coalesce");
  std::atomic<std::size_t> evaluations{0};
  options.eval = [&](const std::string& backend,
                     const model::ScenarioSpec& spec) {
    evaluations.fetch_add(1);
    std::this_thread::sleep_for(300ms);  // hold the window open
    return default_eval(backend, spec);
  };
  Daemon daemon(options);
  daemon.start();

  // Each round, every client sends the same fresh spec at once.
  std::vector<std::vector<EvalReply>> replies(
      kRounds, std::vector<EvalReply>(kClients));
  for (std::size_t r = 0; r < kRounds; ++r) {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, r, i] {
        Client client = Client::connect(daemon.endpoint());
        replies[r][i] = client.evaluate("fluid-equilibrium", quick_spec(r));
      });
    }
    for (auto& thread : clients) thread.join();
  }

  EXPECT_EQ(evaluations.load(), kRounds)
      << "duplicate in-flight requests must coalesce onto one computation";
  for (const std::vector<EvalReply>& round : replies) {
    for (const EvalReply& reply : round) {
      ASSERT_TRUE(reply.ok) << reply.message;
      EXPECT_EQ(reply.values, round[0].values)
          << "every coalesced waiter must receive the identical result";
    }
  }
  const obs::MetricsSnapshot cold = daemon.stats();
  EXPECT_EQ(cold.counters.at("serve.evaluations"), kRounds);
  EXPECT_GE(cold.counters.at("serve.coalesced") +
                cold.counters.at("serve.cache_hit"),
            kRounds * (kClients - 1));

  // Warm: every client re-requests every round's spec. Each one is a
  // cache hit carrying the round's result, and nothing evaluates again.
  std::vector<std::vector<EvalReply>> warm(
      kClients, std::vector<EvalReply>(kRounds));
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        Client client = Client::connect(daemon.endpoint());
        for (std::size_t r = 0; r < kRounds; ++r) {
          warm[i][r] = client.evaluate("fluid-equilibrium", quick_spec(r));
        }
      });
    }
    for (auto& thread : clients) thread.join();
  }
  for (const std::vector<EvalReply>& mine : warm) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(mine[r].ok) << mine[r].message;
      EXPECT_TRUE(mine[r].cached);
      EXPECT_EQ(mine[r].values, replies[r][0].values);
    }
  }
  const obs::MetricsSnapshot hot = daemon.stats();
  EXPECT_EQ(evaluations.load(), kRounds);
  EXPECT_EQ(hot.counters.at("serve.evaluations"), kRounds);
  EXPECT_EQ(hot.counters.at("serve.cache_hit") -
                cold.counters.at("serve.cache_hit"),
            kRounds * kClients);
  daemon.drain();
}

TEST_F(ServeDaemonTest, DuplicatePairsOfFreshSpecsEvaluateOnce) {
  // Two clients send the same fresh specs in the same order, so each spec
  // arrives twice at about the same moment. The second copy joins the
  // computation in flight or, once that has finished, reads its result
  // from the cache. It never starts a second evaluation, also not when
  // its first cache probe misses just before the store lands.
  constexpr std::size_t kSpecs = 2000;
  DaemonOptions options = base_options("duplicate_pairs");
  std::atomic<std::size_t> evaluations{0};
  options.eval = [&](const std::string&, const model::ScenarioSpec& spec) {
    evaluations.fetch_add(1);
    return robust::Values{{"p", spec.correlation}};
  };
  Daemon daemon(options);
  daemon.start();

  std::vector<model::ScenarioSpec> specs;
  for (std::size_t i = 0; i < kSpecs; ++i) {
    model::ScenarioSpec spec = quick_spec();
    spec.correlation = 0.5 + 1e-4 * static_cast<double>(i);
    specs.push_back(spec);
  }
  std::atomic<std::size_t> wrong{0};
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&] {
        Client client = Client::connect(daemon.endpoint());
        for (const model::ScenarioSpec& spec : specs) {
          const EvalReply reply = client.evaluate("fluid-equilibrium", spec);
          if (!reply.ok || reply.values.at("p") != spec.correlation) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : clients) thread.join();
  }

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(evaluations.load(), kSpecs)
      << "a duplicate started a second evaluation";
  const obs::MetricsSnapshot snapshot = daemon.stats();
  EXPECT_EQ(snapshot.counters.at("serve.evaluations"), kSpecs);
  // Each pair: one miss computes; its twin either coalesced (a miss too)
  // or hit the cache.
  EXPECT_EQ(snapshot.counters.at("serve.coalesced") +
                snapshot.counters.at("serve.cache_hit"),
            kSpecs);
  EXPECT_EQ(snapshot.counters.at("serve.cache_miss"),
            kSpecs + snapshot.counters.at("serve.coalesced"));
  daemon.drain();
}

TEST_F(ServeDaemonTest, FullQueueAnswersTypedOverload) {
  DaemonOptions options = base_options("overload");
  options.workers = 1;
  options.queue_depth = 1;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;
  std::atomic<int> started{0};
  options.eval = [&](const std::string& backend,
                     const model::ScenarioSpec& spec) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return released; });
    return default_eval(backend, spec);
  };
  Daemon daemon(options);
  daemon.start();

  // Request 1 occupies the single worker; request 2 fills the depth-1
  // queue; request 3 must be refused with a typed overload, immediately.
  std::thread first([&] {
    Client client = Client::connect(daemon.endpoint());
    EXPECT_TRUE(client.evaluate("fluid-equilibrium", quick_spec(1)).ok);
  });
  while (started.load() == 0) std::this_thread::sleep_for(1ms);
  std::thread second([&] {
    Client client = Client::connect(daemon.endpoint());
    EXPECT_TRUE(client.evaluate("fluid-equilibrium", quick_spec(2)).ok);
  });
  // Give request 2 a moment to enter the queue.
  std::this_thread::sleep_for(100ms);

  Client third = Client::connect(daemon.endpoint());
  const EvalReply rejected =
      third.evaluate("fluid-equilibrium", quick_spec(3));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, ErrorCode::kOverloaded);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  first.join();
  second.join();
  EXPECT_GE(daemon.stats().counters.at("serve.overload"), 1u);
  daemon.drain();
}

TEST_F(ServeDaemonTest, DrainFinishesInFlightWorkBeforeStopping) {
  DaemonOptions options = base_options("drain");
  std::atomic<int> started{0};
  options.eval = [&](const std::string& backend,
                     const model::ScenarioSpec& spec) {
    started.fetch_add(1);
    std::this_thread::sleep_for(300ms);
    return default_eval(backend, spec);
  };
  Daemon daemon(options);
  daemon.start();

  EvalReply reply;
  std::thread inflight([&] {
    Client client = Client::connect(daemon.endpoint());
    reply = client.evaluate("fluid-equilibrium", quick_spec());
  });
  while (started.load() == 0) std::this_thread::sleep_for(1ms);

  daemon.drain();  // must wait for the in-flight evaluation
  inflight.join();
  ASSERT_TRUE(reply.ok) << "drain lost an accepted request's response: "
                        << reply.message;
  EXPECT_TRUE(daemon.draining());
  EXPECT_FALSE(fs::exists(dir_ + "/d.sock"))
      << "drain must unlink the unix socket";
}

TEST_F(ServeDaemonTest, RequestsDuringDrainGetTypedDrainingError) {
  DaemonOptions options = base_options("draining");
  Daemon daemon(options);
  daemon.start();
  Client client = Client::connect(daemon.endpoint());
  client.ping();  // handshaken before the drain begins
  std::thread drainer([&] { daemon.drain(); });
  // The connection stays readable for the daemon until drain's read-side
  // shutdown; a request racing the drain gets `draining`, never silence.
  for (;;) {
    EvalReply reply;
    try {
      reply = client.evaluate("fluid-equilibrium", quick_spec());
    } catch (const Error&) {
      break;  // drain closed the connection between frames — also fine
    }
    if (!reply.ok) {
      EXPECT_EQ(reply.code, ErrorCode::kDraining);
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  drainer.join();
}

TEST_F(ServeDaemonTest, CrashingRequestIsContainedByIsolation) {
  if (!robust::isolation_supported())
    GTEST_SKIP() << "fork isolation unavailable";
  DaemonOptions options = base_options("crash");
  options.robust.isolate = true;
  options.eval = [](const std::string& backend,
                    const model::ScenarioSpec& spec) {
    if (spec.seed == 666) std::abort();  // a poisoned request
    return default_eval(backend, spec);
  };
  Daemon daemon(options);
  daemon.start();
  Client client = Client::connect(daemon.endpoint());

  const EvalReply poisoned =
      client.evaluate("fluid-equilibrium", quick_spec(666));
  EXPECT_FALSE(poisoned.ok);
  EXPECT_EQ(poisoned.code, ErrorCode::kFailed);
  EXPECT_NE(poisoned.message.find("crash"), std::string::npos)
      << poisoned.message;

  // The daemon survived: the same connection keeps serving.
  const EvalReply healthy =
      client.evaluate("fluid-equilibrium", quick_spec(7));
  EXPECT_TRUE(healthy.ok) << healthy.message;
  daemon.drain();
}

TEST_F(ServeDaemonTest, HandshakeRejectsVersionSkew) {
  Daemon daemon(base_options("handshake"));
  daemon.start();

  Socket raw = Socket::connect_to(daemon.endpoint());
  raw.write_frame("hello 999 " + handshake_salt() + "\n");
  const auto frame = raw.read_frame();
  ASSERT_TRUE(frame.has_value());
  const Response response = parse_response(*frame);
  EXPECT_EQ(response.kind, ResponseKind::kError);
  EXPECT_EQ(response.code, ErrorCode::kVersionMismatch);
  // The daemon hangs up after a failed handshake.
  EXPECT_EQ(raw.read_frame(), std::nullopt);
  daemon.drain();
}

TEST_F(ServeDaemonTest, FirstFrameMustBeHello) {
  Daemon daemon(base_options("nohello"));
  daemon.start();
  Socket raw = Socket::connect_to(daemon.endpoint());
  raw.write_frame(encode_ping());
  const auto frame = raw.read_frame();
  ASSERT_TRUE(frame.has_value());
  const Response response = parse_response(*frame);
  EXPECT_EQ(response.kind, ResponseKind::kError);
  EXPECT_EQ(response.code, ErrorCode::kBadRequest);
  daemon.drain();
}

TEST_F(ServeDaemonTest, GarbagePayloadGetsTypedBadRequestThenHangup) {
  Daemon daemon(base_options("garbage"));
  daemon.start();
  Socket raw = Socket::connect_to(daemon.endpoint());
  raw.write_frame(encode_hello());
  ASSERT_TRUE(raw.read_frame().has_value());  // welcome
  raw.write_frame("%%% not a verb %%%\n");
  const auto frame = raw.read_frame();
  ASSERT_TRUE(frame.has_value());
  const Response response = parse_response(*frame);
  EXPECT_EQ(response.kind, ResponseKind::kError);
  EXPECT_EQ(response.code, ErrorCode::kBadRequest);
  EXPECT_EQ(raw.read_frame(), std::nullopt) << "grammar garbage must hang up";
  daemon.drain();
}

TEST_F(ServeDaemonTest, UnknownBackendIsATypedRefusal) {
  Daemon daemon(base_options("nobackend"));
  daemon.start();
  Client client = Client::connect(daemon.endpoint());
  const EvalReply reply = client.evaluate("no-such-backend", quick_spec());
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, ErrorCode::kUnsupported);
  daemon.drain();
}

TEST_F(ServeDaemonTest, SweepAnswersPerPointWithTypedErrors) {
  Daemon daemon(base_options("sweep"));
  daemon.start();
  Client client = Client::connect(daemon.endpoint());
  model::ScenarioSpec spec = quick_spec();
  // 2.5 is out of range for p: that point fails typed, siblings succeed.
  const std::vector<EvalReply> replies = client.sweep(
      "fluid-equilibrium", "p", {0.25, 0.75, 2.5}, spec);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(replies[0].ok) << replies[0].message;
  EXPECT_TRUE(replies[1].ok) << replies[1].message;
  EXPECT_FALSE(replies[2].ok);
  EXPECT_EQ(replies[2].code, ErrorCode::kBadRequest);

  // A seed no uint64 holds exactly is refused per point, never cast.
  const std::vector<EvalReply> seeds = client.sweep(
      "fluid-equilibrium", "seed",
      {7.0, -1.0, 2.5, std::numeric_limits<double>::quiet_NaN()}, spec);
  ASSERT_EQ(seeds.size(), 4u);
  EXPECT_TRUE(seeds[0].ok) << seeds[0].message;
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    EXPECT_FALSE(seeds[i].ok) << i;
    EXPECT_EQ(seeds[i].code, ErrorCode::kBadRequest) << i;
  }

  // An unknown axis refuses the whole request, uniformly.
  const std::vector<EvalReply> unknown =
      client.sweep("fluid-equilibrium", "frequency", {1.0}, spec);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_FALSE(unknown[0].ok);
  EXPECT_EQ(unknown[0].code, ErrorCode::kBadRequest);
  daemon.drain();
}

TEST_F(ServeDaemonTest, StatsExposeTheServeMetrics) {
  Daemon daemon(base_options("stats"));
  daemon.start();
  Client client = Client::connect(daemon.endpoint());
  ASSERT_TRUE(client.evaluate("fluid-equilibrium", quick_spec()).ok);
  const std::string json = client.stats_json();
  for (const char* needle :
       {"serve.requests", "serve.cache_hit", "serve.cache_miss",
        "serve.coalesced", "serve.evaluations", "serve.qps", "serve.p99",
        "serve.latency_seconds"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  daemon.drain();
}

TEST_F(ServeDaemonTest, DrainIsIdempotentAndTheDestructorIsSafe) {
  Daemon daemon(base_options("idempotent"));
  daemon.start();
  daemon.drain();
  daemon.drain();  // second drain must return immediately
  // Destructor drains a drained daemon: must not hang or throw.
}

}  // namespace
}  // namespace btmf::serve
