// The serve layer, measured in fluid-sweep's traced pass: the sweep's own
// specs served by an in-process serve::Daemon to the traffic its callers
// make.
//
// Closed loop: 2 client connections from this process with zero think
// time against a daemon with 2 workers and a per-evaluation deadline.
// The loop is closed because the daemon's callers (`btmf_tool query`,
// sweep scripts) each wait for their reply. An open-loop probe at
// 2000/s was noisy (generator threads ran up to 3.6 ms late at p99).
//
// Traffic, drawn per request from the seed:
//   ~93% warm `evaluate` hits on the grid's specs, which the daemon
//        prefilled first: framing, decode_spec, fingerprint,
//        DiskCache::lookup;
//    ~5% misses on fresh specs (a grid spec under a fresh seed tag, which
//        the fluid backends ignore and the fingerprint does not): queue,
//        watchdog, fluid solve, DiskCache::store;
//    ~2% duplicates of the other connection's in-flight miss (coalesced,
//        or a hit once it has landed);
//   ~0.5% warm `sweep` frames over the grid's rho axis.
// Each connection sends a fixed number of requests, so ~2000 misses give
// serve.queue_wait_ms_p99 about 20 samples beyond it.
#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "btmf/serve/client.h"
#include "btmf/serve/daemon.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using btmf::model::ScenarioSpec;
using Values = std::map<std::string, double>;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kRequestsPerConnection = 20000;
constexpr double kSweepShare = 0.005;
constexpr double kMissShare = 0.05;
constexpr double kDupShare = 0.02;
constexpr double kDeadlineS = 10.0;
const std::string kBackend = "fluid-equilibrium";

constexpr std::uint64_t kFreshSeedBase = 1ULL << 40;

/// Fresh miss spec `index` (connection c uses indices c, c+2, c+4, ...).
ScenarioSpec fresh_spec(const std::vector<ScenarioSpec>& hot,
                        std::uint64_t seed, std::size_t index) {
  Rng rng(seed, 1'000'000 + index);
  ScenarioSpec s = hot[rng.below(hot.size())];
  s.seed = kFreshSeedBase + index;
  return s;
}

enum class Kind : std::uint8_t { kHit, kMiss, kDup, kSweep };

struct Record {
  Kind kind = Kind::kHit;
  bool ok = false;
  bool cached = false;
  bool coalesced = false;
  std::size_t id = 0;  ///< hot index, fresh index or sweep template index
  double start_s = 0.0;
  double rtt_s = 0.0;
  Values values;  ///< evaluate replies only
};

/// Links a daemon-side evaluation to the client request that caused it,
/// through the spec fingerprint.
struct TraceLinks {
  struct Send {
    std::uint64_t req = 0;
    std::uint64_t span = 0;
  };
  struct Eval {
    double start_s = 0.0;
    double end_s = 0.0;
  };
  std::mutex mutex;
  std::unordered_map<std::string, Send> sends;  // guarded by mutex
  std::unordered_map<std::string, Eval> evals;  // guarded by mutex
};

std::uint64_t counter(const btmf::obs::MetricsSnapshot& s,
                      const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

}  // namespace

void probe_serve(const std::vector<ScenarioSpec>& hot,
                 const std::vector<double>& sweep_rhos, std::uint64_t seed,
                 const std::string& dir, const std::shared_ptr<Tracer>& tracer,
                 RunResult& result) {
  // Shared with the injected EvalFn, which the supervisor runs on a
  // watchdog thread that may outlive a timed-out request.
  const auto links = std::make_shared<TraceLinks>();

  // ---- daemon start and the hot-set prefill -------------------------------
  std::filesystem::create_directories(dir);
  btmf::serve::DaemonOptions daemon_options;
  daemon_options.endpoint =
      btmf::serve::Endpoint::parse("unix:" + dir + "/d.sock");
  daemon_options.cache_dir = dir + "/cache";
  daemon_options.workers = kWorkers;
  daemon_options.robust.timeout_s = kDeadlineS;
  daemon_options.eval = [tracer, links](const std::string& backend,
                                        const ScenarioSpec& spec) {
    const std::string fp = spec.fingerprint();
    TraceLinks::Send send;
    {
      const std::lock_guard<std::mutex> lock(links->mutex);
      const auto it = links->sends.find(fp);
      if (it != links->sends.end()) send = it->second;
    }
    const double t0 = now_s();
    btmf::robust::Values values;
    {
      auto span = tracer->span("serve.eval_fn", send.req, send.span);
      values = btmf::serve::default_eval(backend, spec);
    }
    const std::lock_guard<std::mutex> lock(links->mutex);
    links->evals[fp] = {t0, now_s()};
    return values;
  };
  auto daemon = std::make_unique<btmf::serve::Daemon>(std::move(daemon_options));
  daemon->start();
  {
    std::vector<std::thread> fill;
    std::array<std::size_t, kConnections> fill_ok{};
    std::array<std::size_t, kConnections> fill_failed{};
    for (std::size_t c = 0; c < kConnections; ++c) {
      fill.emplace_back([&, c] {
        btmf::serve::Client client =
            btmf::serve::Client::connect(daemon->endpoint());
        for (std::size_t i = c; i < hot.size(); i += kConnections) {
          (client.evaluate(kBackend, hot[i]).ok ? fill_ok : fill_failed)[c]++;
        }
      });
    }
    for (auto& t : fill) t.join();
    const std::size_t ok = fill_ok[0] + fill_ok[1];
    const std::size_t failed = fill_failed[0] + fill_failed[1];
    result.checks.expect(check_accounting("serve prefill", hot.size(), ok,
                                          failed));
    result.checks.expect(check_count("serve prefill failures", failed, 0));
  }

  // ---- the mix ---------------------------------------------------------------
  const btmf::obs::MetricsSnapshot before = daemon->stats();
  std::array<std::vector<Record>, kConnections> records;
  std::array<std::vector<std::vector<Values>>, kConnections> sweep_values;
  std::array<std::atomic<long long>, kConnections> inflight{};
  std::array<std::atomic<long long>, kConnections> landed{};
  for (std::size_t c = 0; c < kConnections; ++c) {
    inflight[c] = -1;
    landed[c] = -1;
  }
  std::array<double, kConnections> finished{};
  const double t_start = now_s();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      btmf::serve::Client client =
          btmf::serve::Client::connect(daemon->endpoint());
      Rng plan(seed, 500 + c);
      auto& mine = records[c];
      mine.reserve(kRequestsPerConnection);
      std::size_t misses = 0;
      const std::size_t other = 1 - c;
      for (std::size_t n = 0; n < kRequestsPerConnection; ++n) {
        Record r;
        const double u = plan.uniform(0.0, 1.0);
        long long dup_target = -1;
        if (u >= kSweepShare + kMissShare &&
            u < kSweepShare + kMissShare + kDupShare) {
          dup_target = inflight[other].load();
          if (dup_target < 0) dup_target = landed[other].load();
        }
        ScenarioSpec spec;
        if (u < kSweepShare) {
          r.kind = Kind::kSweep;
          r.id = plan.below(hot.size());
        } else if (u < kSweepShare + kMissShare) {
          r.kind = Kind::kMiss;
          r.id = c + kConnections * misses++;
          spec = fresh_spec(hot, seed, r.id);
        } else if (dup_target >= 0) {
          r.kind = Kind::kDup;
          r.id = static_cast<std::size_t>(dup_target);
          spec = fresh_spec(hot, seed, r.id);
        } else {
          r.id = plan.below(hot.size());
          spec = hot[r.id];
        }
        const std::uint64_t req = tracer->next_request();
        auto span = tracer->span("serve.client.evaluate", req);
        if (r.kind != Kind::kSweep) {
          const std::lock_guard<std::mutex> lock(links->mutex);
          links->sends.try_emplace(spec.fingerprint(),
                                   TraceLinks::Send{req, span.id()});
        }
        if (r.kind == Kind::kMiss) inflight[c] = static_cast<long long>(r.id);
        r.start_s = now_s();
        if (r.kind == Kind::kSweep) {
          const std::vector<btmf::serve::EvalReply> replies =
              client.sweep(kBackend, "rho", sweep_rhos, hot[r.id]);
          r.rtt_s = now_s() - r.start_s;
          r.ok = replies.size() == sweep_rhos.size();
          r.cached = true;
          std::vector<Values> got;
          for (const auto& reply : replies) {
            r.ok = r.ok && reply.ok;
            r.cached = r.cached && reply.cached;
            got.push_back(reply.values);
          }
          sweep_values[c].push_back(std::move(got));
        } else {
          btmf::serve::EvalReply reply = client.evaluate(kBackend, spec);
          r.rtt_s = now_s() - r.start_s;
          r.ok = reply.ok;
          r.cached = reply.cached;
          r.coalesced = reply.coalesced;
          r.values = std::move(reply.values);
        }
        span.end();
        if (r.kind == Kind::kMiss) {
          landed[c] = static_cast<long long>(r.id);
          inflight[c] = -1;
        }
        mine.push_back(std::move(r));
      }
      finished[c] = now_s();
    });
  }
  for (auto& t : clients) t.join();
  const double wall = std::max(finished[0], finished[1]) - t_start;
  const btmf::obs::MetricsSnapshot after = daemon->stats();
  daemon->drain();
  daemon.reset();
  const auto delta = [&](const std::string& name) {
    return static_cast<double>(counter(after, name) - counter(before, name));
  };

  // ---- output checks --------------------------------------------------------
  std::vector<double> rtt_ms;
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t fresh_sent = 0;
  for (const auto& mine : records) {
    for (const Record& r : mine) {
      ++sent;
      rtt_ms.push_back(r.rtt_s * 1e3);
      if (r.ok) ++succeeded;
      if (r.kind == Kind::kMiss) ++fresh_sent;
    }
  }
  result.attempted += sent;
  result.failed += sent - succeeded;
  result.checks.expect(
      check_accounting("serve mix", sent, succeeded, sent - succeeded));
  result.checks.expect(check_count("serve mix failures", sent - succeeded, 0));
  const auto evaluations = static_cast<std::size_t>(delta("serve.evaluations"));
  result.checks.expect(check_count("serve.evaluations vs distinct fresh specs",
                                   evaluations, fresh_sent));
  // Every reply against an in-process evaluation of its spec, once per
  // distinct spec.
  std::unordered_map<std::string, Values> expected;
  const auto expect_of = [&](const ScenarioSpec& spec) -> const Values& {
    auto [it, fresh] = expected.try_emplace(spec.fingerprint());
    if (fresh) it->second = btmf::serve::default_eval(kBackend, spec);
    return it->second;
  };
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::size_t sweeps_seen = 0;  // sweep_values[c] is in request order
    for (const Record& r : records[c]) {
      if (r.kind == Kind::kSweep) ++sweeps_seen;
      if (!r.ok) continue;
      std::string why;
      if (r.kind == Kind::kSweep) {
        const auto& got = sweep_values[c][sweeps_seen - 1];
        ScenarioSpec point = hot[r.id];
        for (std::size_t k = 0; k < sweep_rhos.size() && why.empty(); ++k) {
          point.rho = sweep_rhos[k];
          why = check_identical_values("sweep reply", got[k], expect_of(point));
        }
      } else if (r.kind == Kind::kHit) {
        why = check_identical_values("hit reply", r.values, expect_of(hot[r.id]));
      } else {
        why = check_identical_values("miss reply", r.values,
                                     expect_of(fresh_spec(hot, seed, r.id)));
      }
      if (!why.empty() && mismatches++ < 5) result.checks.expect(why);
    }
  }
  result.checks.expect(check_count(
      "serve replies that differ from in-process evaluation", mismatches, 0));

  // ---- the serve layer's numbers -------------------------------------------
  std::vector<double> hit_ms;
  std::vector<double> overhead_ms;
  std::vector<double> queue_ms;
  {
    const std::lock_guard<std::mutex> lock(links->mutex);
    for (const auto& mine : records) {
      for (const Record& r : mine) {
        if (r.kind == Kind::kHit && r.cached) hit_ms.push_back(r.rtt_s * 1e3);
        if (r.kind != Kind::kMiss || r.cached || r.coalesced) continue;
        const auto it =
            links->evals.find(fresh_spec(hot, seed, r.id).fingerprint());
        if (it == links->evals.end()) continue;
        // The round trip's self time with the evaluation as its child.
        overhead_ms.push_back(
            self_time({r.start_s, r.start_s + r.rtt_s},
                      {{it->second.start_s, it->second.end_s}}) *
            1e3);
        queue_ms.push_back((it->second.start_s - r.start_s) * 1e3);
      }
    }
  }
  result.layers["serve.hit_rtt_ms_p50"] = median(hit_ms);
  result.layers["serve.miss_overhead_ms_p50"] = median(overhead_ms);
  result.layers["serve.queue_wait_ms_p99"] = percentile(queue_ms, 0.99);
  // Per point: a sweep frame is one request but one cache probe per point.
  result.layers["serve.cache_hit_ratio"] =
      share(delta("serve.cache_hit"),
            delta("serve.cache_hit") + delta("serve.cache_miss"));
  result.layers["serve.evals_per_miss"] =
      share(static_cast<double>(evaluations), delta("serve.cache_miss"));
  result.layers["serve.refused"] = delta("serve.overload");
  result.note("serve.requests", static_cast<double>(sent), "count");
  result.note("serve.misses_timed", static_cast<double>(queue_ms.size()),
              "count");
  result.note("serve.replies_per_s", static_cast<double>(sent) / wall, "1/s");
  result.note("serve.latency_p50_ms", percentile(rtt_ms, 0.50), "ms");
  result.note("serve.latency_p99_ms", percentile(rtt_ms, 0.99), "ms");
  result.note("serve.fresh_specs", static_cast<double>(fresh_sent), "count");
  result.note("serve.evaluations", static_cast<double>(evaluations), "count");
  result.note("serve.coalesced", delta("serve.coalesced"), "count");
  remove_tree(dir);
}

}  // namespace perfbench
