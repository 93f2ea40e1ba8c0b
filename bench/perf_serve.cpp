// Throughput/latency gate for the btmf::serve evaluation daemon.
//
// Three phases, each against a live daemon over a unix socket:
//
//  * warm — populate `unique` distinct scenarios once, then hammer the
//    daemon from `clients` concurrent connections for `rounds` rounds of
//    warm-cache requests. Reports sustained requests/s and client-side
//    p50/p99 latency; fails (exit 1) below --min-qps or if any request
//    errors.
//  * coalesce — duplicate-heavy load against an injected evaluator that
//    counts invocations and sleeps long enough to hold the coalescing
//    window open: every round, all clients request the SAME fresh
//    scenario at once. The gate is exact: backend evaluations == rounds,
//    i.e. N identical concurrent requests cost one computation, however
//    many clients pile on.
//
//  * saturate — a daemon with one worker per core and no cache, every
//    client sending `saturate` distinct stochastic-epidemic specs (MTCD
//    with 250 and MTSD with 600 replications, 2:1), so every worker
//    evaluates at once: the traffic in which concurrent replication
//    fan-outs compete for the cores (docs/SCALE.md). Reports
//    evaluations/s and p50/p99 latency; ungated beyond failing on any
//    errored request.
//
// `--json` records the measurement for the committed BENCH_serve.json
// baseline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "btmf/serve/client.h"
#include "btmf/serve/daemon.h"
#include "btmf/util/stopwatch.h"

namespace {

using namespace btmf;
using Clock = std::chrono::steady_clock;

model::ScenarioSpec bench_spec(std::uint64_t seed) {
  model::ScenarioSpec spec;
  spec.scheme = fluid::SchemeKind::kCmfsd;
  spec.correlation = 0.9;
  spec.rho = 0.1;
  spec.seed = seed;  // distinct seeds = distinct fingerprints/cache keys
  return spec;
}

double quantile_ms(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[rank];
}

struct WarmResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t requests = 0;
  std::size_t errors = 0;
  std::uint64_t cache_hits = 0;
};

WarmResult run_warm(const std::string& dir, std::size_t clients,
                    std::size_t rounds, std::size_t unique) {
  serve::DaemonOptions options;
  options.endpoint = serve::Endpoint::parse("unix:" + dir + "/warm.sock");
  options.cache_dir = dir + "/warm-cache";
  serve::Daemon daemon(std::move(options));
  daemon.start();

  {
    serve::Client client = serve::Client::connect(daemon.endpoint());
    for (std::size_t u = 0; u < unique; ++u) {
      const serve::EvalReply reply =
          client.evaluate("fluid-equilibrium", bench_spec(u + 1));
      if (!reply.ok) {
        std::fprintf(stderr, "populate failed: %s\n",
                     reply.message.c_str());
        std::exit(1);
      }
    }
  }

  std::vector<std::vector<double>> latencies_ms(clients);
  std::atomic<std::size_t> errors{0};
  util::Stopwatch timer;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client client = serve::Client::connect(daemon.endpoint());
        auto& mine = latencies_ms[c];
        mine.reserve(rounds * unique);
        for (std::size_t r = 0; r < rounds; ++r) {
          for (std::size_t u = 0; u < unique; ++u) {
            const Clock::time_point begin = Clock::now();
            const serve::EvalReply reply =
                client.evaluate("fluid-equilibrium", bench_spec(u + 1));
            mine.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          begin)
                    .count());
            if (!reply.ok || !reply.cached) errors.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double wall = timer.seconds();

  WarmResult result;
  result.requests = clients * rounds * unique;
  result.errors = errors.load();
  result.qps = wall > 0.0 ? static_cast<double>(result.requests) / wall : 0.0;
  std::vector<double> all_ms;
  all_ms.reserve(result.requests);
  for (const auto& mine : latencies_ms)
    all_ms.insert(all_ms.end(), mine.begin(), mine.end());
  std::sort(all_ms.begin(), all_ms.end());
  result.p50_ms = quantile_ms(all_ms, 0.50);
  result.p99_ms = quantile_ms(all_ms, 0.99);
  const obs::MetricsSnapshot snapshot = daemon.stats();
  result.cache_hits = snapshot.counters.at("serve.cache_hit");
  daemon.drain();
  return result;
}

struct CoalesceResult {
  std::size_t rounds = 0;
  std::size_t requests = 0;
  std::size_t errors = 0;
  int backend_evals = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t cache_hits = 0;
};

CoalesceResult run_coalesce(const std::string& dir, std::size_t clients,
                            std::size_t rounds) {
  std::atomic<int> evaluations{0};
  serve::DaemonOptions options;
  options.endpoint =
      serve::Endpoint::parse("unix:" + dir + "/coalesce.sock");
  options.cache_dir = dir + "/coalesce-cache";
  options.eval = [&evaluations](const std::string& backend,
                                const model::ScenarioSpec& spec) {
    evaluations.fetch_add(1);
    // Hold the coalescing window open long enough for every client in
    // the round to attach.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return serve::default_eval(backend, spec);
  };
  serve::Daemon daemon(std::move(options));
  daemon.start();

  std::atomic<std::size_t> errors{0};
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, r] {
        serve::Client client = serve::Client::connect(daemon.endpoint());
        const serve::EvalReply reply = client.evaluate(
            "fluid-equilibrium", bench_spec(1'000'000 + r));
        if (!reply.ok) errors.fetch_add(1);
      });
    }
    for (auto& thread : threads) thread.join();
  }

  CoalesceResult result;
  result.rounds = rounds;
  result.requests = clients * rounds;
  result.errors = errors.load();
  result.backend_evals = evaluations.load();
  const obs::MetricsSnapshot snapshot = daemon.stats();
  result.coalesced = snapshot.counters.at("serve.coalesced");
  result.cache_hits = snapshot.counters.at("serve.cache_hit");
  daemon.drain();
  return result;
}

struct SaturateResult {
  std::size_t requests = 0;
  std::size_t errors = 0;
  double evals_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

model::ScenarioSpec epidemic_spec(std::size_t id) {
  model::ScenarioSpec spec;
  const bool sequential = id % 3 == 1;
  spec.scheme =
      sequential ? fluid::SchemeKind::kMtsd : fluid::SchemeKind::kMtcd;
  spec.epidemic_replications = sequential ? 600 : 250;
  spec.correlation =
      0.65 + 0.1 * static_cast<double>(id * 37 % 100) / 100.0;
  spec.seed = 2'000'000 + id;
  return spec;
}

SaturateResult run_saturate(const std::string& dir, std::size_t clients,
                            std::size_t per_client) {
  serve::DaemonOptions options;
  options.endpoint =
      serve::Endpoint::parse("unix:" + dir + "/saturate.sock");
  options.workers = 0;  // one per core
  serve::Daemon daemon(std::move(options));
  daemon.start();

  std::vector<std::vector<double>> latencies_ms(clients);
  std::atomic<std::size_t> errors{0};
  util::Stopwatch timer;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client client = serve::Client::connect(daemon.endpoint());
        for (std::size_t j = 0; j < per_client; ++j) {
          const Clock::time_point begin = Clock::now();
          const serve::EvalReply reply = client.evaluate(
              "stochastic-epidemic", epidemic_spec(c * per_client + j));
          latencies_ms[c].push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - begin)
                  .count());
          if (!reply.ok) errors.fetch_add(1);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const double wall = timer.seconds();
  daemon.drain();

  SaturateResult result;
  result.requests = clients * per_client;
  result.errors = errors.load();
  result.evals_per_s =
      wall > 0.0 ? static_cast<double>(result.requests) / wall : 0.0;
  std::vector<double> all_ms;
  for (const auto& mine : latencies_ms)
    all_ms.insert(all_ms.end(), mine.begin(), mine.end());
  std::sort(all_ms.begin(), all_ms.end());
  result.p50_ms = quantile_ms(all_ms, 0.50);
  result.p99_ms = quantile_ms(all_ms, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser = bench::make_parser(
      "perf_serve",
      "Evaluation-daemon throughput, latency and coalescing gates");
  parser.add_option("clients", "8", "concurrent client connections");
  parser.add_option("rounds", "25", "request rounds per phase");
  parser.add_option("unique", "16", "distinct warm-cache scenarios");
  parser.add_option("min-qps", "200",
                    "fail below this sustained warm-cache requests/s");
  parser.add_option("scratch", ".perf-serve",
                    "scratch directory (recreated each run)");
  parser.add_option("json", "", "also dump the measurement as JSON here");
  parser.add_option("saturate", "4",
                    "distinct stochastic-epidemic requests per client in "
                    "the saturation phase");
  if (!parser.parse(argc, argv)) return 0;
  if (!serve::serve_supported()) {
    std::fprintf(stderr, "SKIP: POSIX sockets unavailable\n");
    return 0;
  }

  const auto clients = static_cast<std::size_t>(parser.get_int("clients"));
  const auto rounds = static_cast<std::size_t>(parser.get_int("rounds"));
  const auto unique = static_cast<std::size_t>(parser.get_int("unique"));
  const double min_qps = parser.get_double("min-qps");
  const std::string scratch = parser.get("scratch");
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  const WarmResult warm = run_warm(scratch, clients, rounds, unique);
  const CoalesceResult coalesce = run_coalesce(scratch, clients, rounds);
  const SaturateResult saturate = run_saturate(
      scratch, clients, static_cast<std::size_t>(parser.get_int("saturate")));

  util::Table table({"phase", "requests", "qps", "p50 ms", "p99 ms",
                     "backend evals", "coalesced+hits"});
  table.set_precision(3);
  table.add_row({"warm", static_cast<double>(warm.requests), warm.qps,
                 warm.p50_ms, warm.p99_ms, 0.0,
                 static_cast<double>(warm.cache_hits)});
  table.add_row({"coalesce", static_cast<double>(coalesce.requests), 0.0,
                 0.0, 0.0, static_cast<double>(coalesce.backend_evals),
                 static_cast<double>(coalesce.coalesced +
                                     coalesce.cache_hits)});
  table.add_row({"saturate", static_cast<double>(saturate.requests),
                 saturate.evals_per_s, saturate.p50_ms, saturate.p99_ms,
                 static_cast<double>(saturate.requests), 0.0});
  bench::emit(table,
              "Serve daemon (warm-cache, duplicate-heavy and saturating "
              "epidemic load)",
              parser.get("csv"));

  const std::string json_path = parser.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"clients\": %zu, \"warm_requests\": %zu, \"qps\": %.0f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"min_qps\": %.0f, "
        "\"coalesce_requests\": %zu, \"coalesce_rounds\": %zu, "
        "\"backend_evals\": %d, \"coalesced\": %llu, "
        "\"coalesce_cache_hits\": %llu}\n",
        clients, warm.requests, warm.qps, warm.p50_ms, warm.p99_ms,
        min_qps, coalesce.requests, coalesce.rounds,
        coalesce.backend_evals,
        static_cast<unsigned long long>(coalesce.coalesced),
        static_cast<unsigned long long>(coalesce.cache_hits));
    out << buf;
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json saved to %s)\n", json_path.c_str());
  }

  bool pass = true;
  if (warm.errors != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu warm requests errored or missed the cache\n",
                 warm.errors);
    pass = false;
  }
  if (warm.qps < min_qps) {
    std::fprintf(stderr, "FAIL: warm qps %.0f below floor %.0f\n", warm.qps,
                 min_qps);
    pass = false;
  }
  if (saturate.errors != 0) {
    std::fprintf(stderr, "FAIL: %zu saturation requests errored\n",
                 saturate.errors);
    pass = false;
  }
  if (coalesce.errors != 0) {
    std::fprintf(stderr, "FAIL: %zu coalesce requests errored\n",
                 coalesce.errors);
    pass = false;
  }
  if (coalesce.backend_evals != static_cast<int>(coalesce.rounds)) {
    std::fprintf(stderr,
                 "FAIL: %zu rounds of %zu identical requests cost %d "
                 "backend evaluations (want exactly %zu)\n",
                 coalesce.rounds, clients, coalesce.backend_evals,
                 coalesce.rounds);
    pass = false;
  }
  if (pass) {
    std::printf(
        "PASS: %.0f warm qps (floor %.0f), p99 %.3f ms; %zux%zu duplicate "
        "requests -> %d evaluations\n",
        warm.qps, min_qps, warm.p99_ms, coalesce.rounds, clients,
        coalesce.backend_evals);
  }
  return pass ? 0 : 1;
}
