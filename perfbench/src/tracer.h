// Spans recorded by the benchmark around its own calls into btmf layers.
//
// Nothing inside src/ is instrumented: each span brackets one call the
// benchmark makes into a layer's public function (run_sweep, a PointFn,
// Backend::evaluate, Client::evaluate, an injected EvalFn, ...). A span
// carries a request id and the id of the span that caused it, so a
// request's spans form a tree across threads. Spans stay in memory and
// go to disk once, as Chrome trace JSON (obs::TraceWriter) that Perfetto
// opens; `args` of every event holds {"id", "parent", "req"}.
//
// A disabled tracer records nothing; the untraced runs that produce the
// end-to-end metrics use one.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "btmf/obs/trace.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< request id shared by a request's spans
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span; records on end() or destruction when the tracer is on.
  class Scope {
   public:
    Scope(Scope&& other) noexcept;
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }

    [[nodiscard]] std::uint64_t id() const { return record_.id; }
    void end();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, SpanRecord record);
    Tracer* tracer_;  // null when disabled or ended
    SpanRecord record_;
    std::optional<btmf::obs::TraceWriter::Span> span_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span. `parent` 0 means "the innermost open span of this
  /// thread"; pass an id to link a span to one opened on another thread.
  [[nodiscard]] Scope span(std::string name, std::uint64_t req = 0,
                           std::uint64_t parent = 0);

  /// A fresh request id.
  [[nodiscard]] std::uint64_t next_request();

  /// Finished spans, in completion order.
  [[nodiscard]] std::vector<SpanRecord> records() const;
  /// Finished spans named `name`.
  [[nodiscard]] std::vector<SpanRecord> named(const std::string& name) const;

  /// Writes the Chrome trace; throws btmf::IoError on failure.
  void write(const std::string& path) const;

 private:
  void finish(SpanRecord record);

  bool enabled_;
  btmf::obs::TraceWriter writer_{"perfbench"};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;        // guarded by mutex_
  std::uint64_t next_req_ = 1;       // guarded by mutex_
};

}  // namespace perfbench
