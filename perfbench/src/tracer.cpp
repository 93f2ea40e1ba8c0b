#include "tracer.h"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

// Innermost open span of the calling thread (default parent).
thread_local std::vector<std::uint64_t> open_spans;

}  // namespace

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

Tracer::Scope::Scope(Tracer* tracer, SpanRecord record)
    : tracer_(tracer), record_(std::move(record)) {
  if (tracer_ == nullptr) return;
  span_.emplace(tracer_->writer_.span(record_.name));
  open_spans.push_back(record_.id);
  record_.start_s = now_s();
}

Tracer::Scope::Scope(Scope&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      record_(std::move(other.record_)),
      span_(std::move(other.span_)) {}

void Tracer::Scope::end() {
  if (tracer_ == nullptr) return;
  record_.end_s = now_s();
  if (!open_spans.empty() && open_spans.back() == record_.id) {
    open_spans.pop_back();
  }
  span_->set_args("{\"id\": " + std::to_string(record_.id) +
                  ", \"parent\": " + std::to_string(record_.parent) +
                  ", \"req\": " + std::to_string(record_.req) + "}");
  span_->end();
  std::exchange(tracer_, nullptr)->finish(std::move(record_));
}

Tracer::Scope Tracer::span(std::string name, std::uint64_t req,
                           std::uint64_t parent) {
  if (!enabled_) return Scope(nullptr, {});
  SpanRecord record;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    record.id = next_id_++;
  }
  record.parent = parent != 0 ? parent
                              : (open_spans.empty() ? 0 : open_spans.back());
  record.req = req;
  record.name = std::move(name);
  return Scope(this, std::move(record));
}

std::uint64_t Tracer::next_request() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_req_++;
}

void Tracer::finish(SpanRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::vector<SpanRecord> Tracer::named(const std::string& name) const {
  std::vector<SpanRecord> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& r : records_) {
    if (r.name == name) out.push_back(r);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  writer_.write_file(path);
}

}  // namespace perfbench
