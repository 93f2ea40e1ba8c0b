#include "btmf/serve/daemon.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "btmf/model/backend.h"
#include "btmf/model/outcome.h"
#include "btmf/model/wire.h"
#include "btmf/robust/escalate.h"
#include "btmf/serve/protocol.h"
#include "btmf/sweep/cache.h"
#include "btmf/util/error.h"
#include "btmf/util/strings.h"

namespace btmf::serve {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Rebinds one named axis of `spec` to `value` (the sweep request's knob).
/// Throws btmf::ConfigError on an unknown axis name or a seed that is not
/// an integer in [0, 2^64), which no cast could carry; other range
/// violations are caught by the validate() the caller performs per point.
model::ScenarioSpec apply_axis(const model::ScenarioSpec& spec,
                               const std::string& axis, double value) {
  model::ScenarioSpec out = spec;
  if (axis == "p") {
    out.correlation = value;
  } else if (axis == "rho") {
    out.rho = value;
    out.rho_per_class.clear();
  } else if (axis == "lambda0") {
    out.visit_rate = value;
  } else if (axis == "mu") {
    out.fluid.mu = value;
  } else if (axis == "eta") {
    out.fluid.eta = value;
  } else if (axis == "gamma") {
    out.fluid.gamma = value;
  } else if (axis == "cheaters") {
    out.cheater_fraction = value;
  } else if (axis == "theta") {
    out.abort_rate = value;
  } else if (axis == "horizon") {
    out.horizon = value;
  } else if (axis == "seed") {
    if (!(value >= 0.0 && value < 0x1p64 && value == std::floor(value))) {
      throw ConfigError("seed must be an integer in [0, 2^64), got " +
                        util::format_double_exact(value));
    }
    out.seed = static_cast<std::uint64_t>(value);
  } else {
    throw ConfigError(
        "unknown sweep axis '" + axis +
        "' (known: p, rho, lambda0, mu, eta, gamma, cheaters, theta, "
        "horizon, seed)");
  }
  return out;
}

ErrorCode error_code_for(const robust::Failure& failure) {
  return failure.kind == robust::FailureKind::kUnsupported
             ? ErrorCode::kUnsupported
             : ErrorCode::kFailed;
}

std::string message_for(const robust::Failure& failure) {
  return std::string(robust::to_string(failure.kind)) + ": " +
         failure.message;
}

}  // namespace

robust::Values default_eval(const std::string& backend,
                            const model::ScenarioSpec& spec) {
  const model::Backend& be = model::require_backend(backend);
  const model::Outcome outcome = be.evaluate_or_throw(spec);
  robust::Values values;
  values["avg_online_per_file"] = outcome.avg_online_per_file;
  values["avg_download_per_file"] = outcome.avg_download_per_file;
  values["avg_online_per_user"] = outcome.avg_online_per_user;
  return values;
}

struct Daemon::Impl {
  // --- one coalesced computation ----------------------------------------
  struct Pending {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    robust::Failure failure;
    robust::Values values;
  };

  /// What the cache probe + admission control decided for one point.
  struct Dispatched {
    enum class Kind { kHit, kWait, kOverloaded, kDraining };
    Kind kind = Kind::kOverloaded;
    robust::Values values;                ///< kHit
    std::shared_ptr<Pending> pending;     ///< kWait
    bool coalesced = false;               ///< kWait: joined existing work
  };

  explicit Impl(DaemonOptions options) : options_(std::move(options)) {
    if (options_.workers == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      options_.workers = hw > 0 ? hw : 1;
    }
    if (options_.queue_depth == 0)
      throw ConfigError("serve: queue_depth must be >= 1");
    if (options_.max_connections == 0)
      throw ConfigError("serve: max_connections must be >= 1");
    if (!options_.eval) options_.eval = default_eval;
    options_.robust.metrics = &registry_;

    ids_.requests = registry_.counter("serve.requests");
    ids_.cache_hit = registry_.counter("serve.cache_hit");
    ids_.cache_miss = registry_.counter("serve.cache_miss");
    ids_.coalesced = registry_.counter("serve.coalesced");
    ids_.evaluations = registry_.counter("serve.evaluations");
    ids_.overload = registry_.counter("serve.overload");
    ids_.errors = registry_.counter("serve.errors");
    ids_.connections = registry_.counter("serve.connections");
    ids_.quarantined = registry_.counter("serve.quarantined");
    ids_.latency = registry_.histogram("serve.latency_seconds");
    ids_.qps = registry_.gauge("serve.qps");
    ids_.p99 = registry_.gauge("serve.p99");
  }

  ~Impl() {
    try {
      drain();
    } catch (...) {
      // Destruction must not throw; drain failures die silently here.
    }
  }

  // --- lifecycle ---------------------------------------------------------

  void start() {
    if (!serve_supported())
      throw ConfigError(
          "the serve subsystem requires POSIX sockets, which this platform "
          "does not provide");
    if (started_) throw ConfigError("serve: daemon already started");
    if (!options_.cache_dir.empty())
      cache_.emplace(options_.cache_dir);
    listener_ = Listener::listen_on(options_.endpoint);
    started_ = true;
    start_time_ = Clock::now();
    for (std::size_t i = 0; i < options_.workers; ++i)
      workers_.emplace_back(&Impl::worker_loop, this);
    accept_thread_ = std::thread(&Impl::accept_loop, this);
  }

  /// Graceful shutdown, in the order the header documents: stop intake,
  /// finish queued + running evaluations (publishing every Pending), then
  /// half-close connection read sides so handlers see EOF *after* writing
  /// any response they owe, join handlers, stop workers.
  void drain() {
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      if (draining_.exchange(true)) {
        // Another drain is (or was) in flight; wait for it to finish.
        std::unique_lock<std::mutex> done(drained_mutex_);
        drained_cv_.wait(done, [&] { return drained_; });
        return;
      }
    }
    if (started_) {
      stop_accept_ = true;
      if (accept_thread_.joinable()) accept_thread_.join();
      listener_.close();

      // Every dispatched job completes and publishes its Pending; new
      // dispatches are already refused (draining_ checked under
      // inflight_mutex_), so the queue can only shrink.
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock,
                       [&] { return queue_.empty() && active_jobs_ == 0; });
      }

      // Handlers blocked on Pending have been woken; handlers blocked in
      // read_frame() see EOF. Responses already owed still go out: only
      // the read side is closed.
      {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto& connection : connections_) connection->shutdown_read();
      }
      {
        std::unique_lock<std::mutex> lock(handlers_mutex_);
        handlers_cv_.wait(lock, [&] { return active_handlers_ == 0; });
      }

      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        stop_workers_ = true;
      }
      queue_cv_.notify_all();
      for (auto& worker : workers_)
        if (worker.joinable()) worker.join();
      workers_.clear();
    }
    {
      std::lock_guard<std::mutex> done(drained_mutex_);
      drained_ = true;
    }
    drained_cv_.notify_all();
  }

  [[nodiscard]] obs::MetricsSnapshot stats() {
    const double uptime = started_ ? seconds_since(start_time_) : 0.0;
    const auto requests =
        static_cast<double>(request_count_.load(std::memory_order_relaxed));
    registry_.set(ids_.qps, uptime > 0.0 ? requests / uptime : 0.0);
    const obs::MetricsSnapshot snap = registry_.snapshot();
    const auto it = snap.histograms.find("serve.latency_seconds");
    registry_.set(ids_.p99,
                  it != snap.histograms.end() ? it->second.quantile(0.99)
                                              : 0.0);
    return registry_.snapshot();
  }

  // --- worker pool --------------------------------------------------------

  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock,
                       [&] { return stop_workers_ || !queue_.empty(); });
        if (queue_.empty()) return;  // only reachable when stopping
        job = std::move(queue_.front());
        queue_.pop_front();
        ++active_jobs_;
      }
      job();
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        --active_jobs_;
      }
      queue_cv_.notify_all();
    }
  }

  /// Admission control: false when the bounded queue is full (the caller
  /// answers `error overloaded` — backpressure, never unbounded memory).
  bool try_submit(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (stop_workers_ || queue_.size() >= options_.queue_depth)
        return false;
      queue_.push_back(std::move(job));
    }
    queue_cv_.notify_one();
    return true;
  }

  // --- the request path ---------------------------------------------------

  [[nodiscard]] std::string task_key(const std::string& backend,
                                     const model::ScenarioSpec& spec) const {
    return "backend=" + backend + "|" + spec.fingerprint();
  }

  [[nodiscard]] sweep::CacheKey cache_key(const std::string& key) const {
    return sweep::CacheKey{"serve", key, "outcome"};
  }

  /// One DiskCache probe, counted as a hit when it answers. A corrupt
  /// entry is quarantined and reads as a miss.
  std::optional<Dispatched> cached(const std::string& key) {
    if (!cache_) return std::nullopt;
    sweep::PointResult result;
    const sweep::CacheKey ck = cache_key(key);
    switch (cache_->lookup(ck, &result)) {
      case sweep::CacheLookup::kHit:
        registry_.add(ids_.cache_hit);
        return Dispatched{Dispatched::Kind::kHit, std::move(result.values),
                          nullptr, false};
      case sweep::CacheLookup::kCorrupt:
        cache_->quarantine(ck);
        registry_.add(ids_.quarantined);
        break;
      case sweep::CacheLookup::kMiss:
        break;
    }
    return std::nullopt;
  }

  /// Cache probe + coalescing + admission for one (backend, spec) point.
  Dispatched dispatch(const std::string& backend,
                      const model::ScenarioSpec& spec) {
    const std::string key = task_key(backend, spec);
    if (std::optional<Dispatched> hit = cached(key)) return std::move(*hit);

    // The inflight lock covers the draining check, the coalescing probe,
    // AND the queue submit: a waiter can only attach to a Pending that is
    // either queued or will be erased before anyone else can see it.
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(key);
    if (!draining_ && it == inflight_.end()) {
      // compute() stores its result before it leaves inflight_ under this
      // lock, so a computation that finished since the probe above has
      // its result on disk now: probe again rather than start a second.
      if (std::optional<Dispatched> hit = cached(key)) return std::move(*hit);
    }
    registry_.add(ids_.cache_miss);
    if (draining_) return {Dispatched::Kind::kDraining, {}, nullptr, false};
    if (it != inflight_.end()) {
      registry_.add(ids_.coalesced);
      return {Dispatched::Kind::kWait, {}, it->second, true};
    }
    auto pending = std::make_shared<Pending>();
    inflight_.emplace(key, pending);
    const bool admitted = try_submit(
        [this, backend, spec, key, pending] {
          compute(backend, spec, key, pending);
        });
    if (!admitted) {
      inflight_.erase(key);
      registry_.add(ids_.overload);
      return {Dispatched::Kind::kOverloaded, {}, nullptr, false};
    }
    return {Dispatched::Kind::kWait, {}, std::move(pending), false};
  }

  /// The worker-side computation: supervised evaluation, cache store,
  /// publish-to-all-waiters. Never throws.
  void compute(const std::string& backend, const model::ScenarioSpec& spec,
               const std::string& key, std::shared_ptr<Pending> pending) {
    const EvalFn eval = options_.eval;
    const robust::Task task =
        [&eval, &backend, &spec](const robust::TaskContext& ctx) {
          const model::ScenarioSpec attempt =
              ctx.attempt > 0 ? robust::escalate_spec(spec, ctx.attempt)
                              : spec;
          return eval(backend, attempt);
        };
    robust::SuperviseOutcome outcome =
        robust::supervise(task, options_.robust, sweep::fnv1a64(key));
    if (outcome.ok()) {
      registry_.add(ids_.evaluations);
      if (cache_) {
        try {
          cache_->store(cache_key(key), sweep::PointResult{outcome.values});
        } catch (const Error&) {
          // A full or read-only disk must not fail the request: the
          // result still reaches every waiter, it just is not memoized.
        }
      }
    }
    {
      // Erase before publishing: a request arriving after the erase
      // re-probes the cache (hit) or starts a fresh computation; one
      // arriving before it still attaches to this Pending.
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    }
    {
      std::lock_guard<std::mutex> lock(pending->mutex);
      pending->failure = std::move(outcome.failure);
      pending->values = std::move(outcome.values);
      pending->done = true;
    }
    pending->cv.notify_all();
  }

  static void wait_pending(Pending& pending, robust::Failure* failure,
                           robust::Values* values) {
    std::unique_lock<std::mutex> lock(pending.mutex);
    pending.cv.wait(lock, [&] { return pending.done; });
    *failure = pending.failure;
    *values = pending.values;
  }

  std::string handle_evaluate(const Request& request) {
    Dispatched d = dispatch(request.backend, request.spec);
    switch (d.kind) {
      case Dispatched::Kind::kHit:
        return encode_ok(d.values, /*cached=*/true, /*coalesced=*/false);
      case Dispatched::Kind::kOverloaded:
        registry_.add(ids_.errors);
        return encode_error(ErrorCode::kOverloaded,
                            "evaluation queue is full; retry later");
      case Dispatched::Kind::kDraining:
        registry_.add(ids_.errors);
        return encode_error(ErrorCode::kDraining,
                            "daemon is draining; no new work accepted");
      case Dispatched::Kind::kWait:
        break;
    }
    robust::Failure failure;
    robust::Values values;
    wait_pending(*d.pending, &failure, &values);
    if (!failure.ok()) {
      registry_.add(ids_.errors);
      return encode_error(error_code_for(failure), message_for(failure));
    }
    return encode_ok(values, /*cached=*/false, d.coalesced);
  }

  std::string handle_sweep(const Request& request) {
    // An unknown axis poisons every point equally: whole-request error.
    // The probe value 0 is valid on every axis, so only the name can fail.
    (void)apply_axis(request.spec, request.axis, 0.0);

    std::vector<PointReply> replies(request.values.size());
    std::vector<std::shared_ptr<Pending>> waits(request.values.size());
    for (std::size_t i = 0; i < request.values.size(); ++i) {
      PointReply& reply = replies[i];
      model::ScenarioSpec point;
      try {
        point = apply_axis(request.spec, request.axis, request.values[i]);
        point.validate();
      } catch (const Error& e) {
        registry_.add(ids_.errors);
        reply.code = ErrorCode::kBadRequest;
        reply.message = e.what();
        continue;
      }
      Dispatched d = dispatch(request.backend, point);
      switch (d.kind) {
        case Dispatched::Kind::kHit:
          reply.ok = true;
          reply.values = std::move(d.values);
          break;
        case Dispatched::Kind::kOverloaded:
          registry_.add(ids_.errors);
          reply.code = ErrorCode::kOverloaded;
          reply.message = "evaluation queue is full; retry later";
          break;
        case Dispatched::Kind::kDraining:
          registry_.add(ids_.errors);
          reply.code = ErrorCode::kDraining;
          reply.message = "daemon is draining; no new work accepted";
          break;
        case Dispatched::Kind::kWait:
          waits[i] = std::move(d.pending);
          break;
      }
    }
    for (std::size_t i = 0; i < waits.size(); ++i) {
      if (!waits[i]) continue;
      robust::Failure failure;
      robust::Values values;
      wait_pending(*waits[i], &failure, &values);
      if (failure.ok()) {
        replies[i].ok = true;
        replies[i].values = std::move(values);
      } else {
        registry_.add(ids_.errors);
        replies[i].code = error_code_for(failure);
        replies[i].message = message_for(failure);
      }
    }
    return encode_sweep_ok(replies);
  }

  // --- connection handling ------------------------------------------------

  void accept_loop() {
    while (!stop_accept_) {
      std::optional<Socket> accepted = listener_.accept_once(0.05);
      if (!accepted || !accepted->valid()) continue;
      auto connection = std::make_shared<Socket>(std::move(*accepted));
      if (draining_) {
        try {
          connection->write_frame(encode_error(
              ErrorCode::kDraining, "daemon is draining; try again later"));
        } catch (const Error&) {
        }
        continue;  // destructor closes
      }
      std::lock_guard<std::mutex> connections_lock(connections_mutex_);
      if (connections_.size() >= options_.max_connections) {
        registry_.add(ids_.overload);
        try {
          connection->write_frame(
              encode_error(ErrorCode::kOverloaded,
                           "connection limit reached; retry later"));
        } catch (const Error&) {
        }
        continue;
      }
      connections_.push_back(connection);
      registry_.add(ids_.connections);
      {
        std::lock_guard<std::mutex> handlers_lock(handlers_mutex_);
        ++active_handlers_;
      }
      // Detached: handlers signal handlers_cv_ as their very last touch of
      // this Impl, and drain() waits for active_handlers_ == 0, so no
      // handler outlives the daemon. Joining instead would accumulate one
      // dead std::thread per connection ever served.
      std::thread(&Impl::handle_connection, this, connection).detach();
    }
  }

  void handle_connection(std::shared_ptr<Socket> connection) {
    bool greeted = false;
    try {
      for (;;) {
        std::optional<std::string> payload = connection->read_frame();
        if (!payload) break;  // clean close (or drain's shutdown_read)
        const Clock::time_point begin = Clock::now();
        request_count_.fetch_add(1, std::memory_order_relaxed);
        registry_.add(ids_.requests);

        std::string reply;
        bool close_after = false;
        try {
          const Request request = parse_request(*payload);
          if (!greeted) {
            if (request.kind != RequestKind::kHello) {
              registry_.add(ids_.errors);
              reply = encode_error(ErrorCode::kBadRequest,
                                   "first frame must be hello");
              close_after = true;
            } else if (request.protocol_version != kProtocolVersion ||
                       request.salt != handshake_salt()) {
              registry_.add(ids_.errors);
              reply = encode_error(
                  ErrorCode::kVersionMismatch,
                  "daemon speaks protocol " +
                      std::to_string(kProtocolVersion) + " with salt " +
                      handshake_salt());
              close_after = true;
            } else {
              greeted = true;
              reply = encode_welcome();
            }
          } else {
            switch (request.kind) {
              case RequestKind::kHello:
                reply = encode_welcome();  // harmless re-greeting
                break;
              case RequestKind::kPing:
                reply = encode_pong();
                break;
              case RequestKind::kStats:
                reply = encode_stats_ok(stats().to_json());
                break;
              case RequestKind::kEvaluate:
                reply = handle_evaluate(request);
                break;
              case RequestKind::kSweep:
                reply = handle_sweep(request);
                break;
            }
          }
        } catch (const ProtocolError& e) {
          // Grammar-level garbage: answer once, then cut the connection —
          // the stream can no longer be trusted to be frame-aligned.
          registry_.add(ids_.errors);
          reply = encode_error(ErrorCode::kBadRequest, e.what());
          close_after = true;
        } catch (const ConfigError& e) {
          // A well-framed but invalid request (bad spec, unknown backend):
          // typed refusal, connection stays usable.
          registry_.add(ids_.errors);
          reply = encode_error(ErrorCode::kBadRequest, e.what());
        } catch (const Error& e) {
          registry_.add(ids_.errors);
          reply = encode_error(ErrorCode::kFailed, e.what());
        }
        connection->write_frame(reply);
        registry_.observe(ids_.latency, seconds_since(begin));
        if (close_after) break;
      }
    } catch (const ProtocolError&) {
      // Torn frame mid-read; nothing sensible to answer.
    } catch (const Error&) {
      // Peer vanished mid-write; nothing to do.
    }
    connection->shutdown_both();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      for (auto it = connections_.begin(); it != connections_.end(); ++it) {
        if (it->get() == connection.get()) {
          connections_.erase(it);
          break;
        }
      }
    }
    // Last touch of the Impl: notify while holding the mutex so drain()
    // cannot destroy the condition variable mid-notify.
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    --active_handlers_;
    handlers_cv_.notify_all();
  }

  // --- state --------------------------------------------------------------

  struct MetricIds {
    obs::MetricId requests = 0, cache_hit = 0, cache_miss = 0,
                  coalesced = 0, evaluations = 0, overload = 0, errors = 0,
                  connections = 0, quarantined = 0, latency = 0, qps = 0,
                  p99 = 0;
  };

  DaemonOptions options_;
  obs::MetricsRegistry registry_;
  MetricIds ids_;
  std::optional<sweep::DiskCache> cache_;
  Listener listener_;
  Clock::time_point start_time_{};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_accept_{false};
  std::atomic<std::uint64_t> request_count_{0};

  std::thread accept_thread_;
  std::mutex handlers_mutex_;
  std::condition_variable handlers_cv_;
  std::size_t active_handlers_ = 0;
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Socket>> connections_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_jobs_ = 0;
  bool stop_workers_ = false;
  std::vector<std::thread> workers_;

  std::mutex inflight_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Pending>> inflight_;

  std::mutex drained_mutex_;
  std::condition_variable drained_cv_;
  bool drained_ = false;
};

Daemon::Daemon(DaemonOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}
Daemon::~Daemon() = default;

void Daemon::start() { impl_->start(); }
void Daemon::drain() { impl_->drain(); }
bool Daemon::draining() const { return impl_->draining_; }
const Endpoint& Daemon::endpoint() const {
  return impl_->listener_.endpoint();
}
obs::MetricsRegistry& Daemon::metrics() { return impl_->registry_; }
obs::MetricsSnapshot Daemon::stats() { return impl_->stats(); }

}  // namespace btmf::serve
