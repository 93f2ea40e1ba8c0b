#include "workload.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "btmf/model/backend.h"
#include "btmf/model/wire.h"
#include "btmf/obs/trace.h"
#include "btmf/parallel/seeds.h"
#include "stats.h"

namespace perfbench {

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(btmf::parallel::derive_seed(seed, stream)) {}

std::uint64_t Rng::next() {
  state_ = btmf::parallel::splitmix64(state_);
  return state_;
}

double Rng::uniform(double lo, double hi) {
  const double u =
      static_cast<double>(next() >> 11) / static_cast<double>(1ULL << 53);
  return lo + (hi - lo) * u;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kib);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double time_s(const std::function<void()>& work) {
  const double t0 = now_s();
  work();
  return now_s() - t0;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double span_p50_ms(const Tracer& tracer, const std::string& name) {
  std::vector<double> ms;
  for (const SpanRecord& r : tracer.named(name)) ms.push_back(r.seconds() * 1e3);
  return median(ms);
}

void probe_model_codec(const std::vector<btmf::model::ScenarioSpec>& specs,
                       RunResult& result) {
  std::vector<double> wire_us;
  std::vector<double> fp_us;
  for (const auto& spec : specs) {
    double t0 = now_s();
    const btmf::model::ScenarioSpec back =
        btmf::model::decode_spec(btmf::model::encode_spec(spec));
    wire_us.push_back((now_s() - t0) * 1e6);
    t0 = now_s();
    const std::string fp = spec.fingerprint();
    fp_us.push_back((now_s() - t0) * 1e6);
    result.checks.expect(back.fingerprint() == fp
                             ? ""
                             : "wire round trip changed a fingerprint");
  }
  result.layers["model.wire_us"] = median(wire_us);
  result.layers["model.fingerprint_us"] = median(fp_us);
}

void probe_supervisor(const std::string& backend,
                      const std::vector<btmf::model::ScenarioSpec>& specs,
                      const btmf::robust::SupervisorOptions& supervisor,
                      RunResult& result) {
  const btmf::model::Backend& be = btmf::model::require_backend(backend);
  std::vector<double> overhead_us;
  std::uint64_t key = 0;
  for (const auto& spec : specs) {
    // The task owns a copy of the spec: a watchdogged attempt may outlive
    // this frame (robust/supervisor.h).
    const btmf::robust::Task task =
        [&be, spec](const btmf::robust::TaskContext&) {
          const btmf::model::Outcome o = be.evaluate_or_throw(spec);
          return btmf::robust::Values{{"avg_online_per_file",
                                       o.avg_online_per_file}};
        };
    double bare_s = 0.0;
    double supervised_s = 0.0;
    double direct = 0.0;
    btmf::robust::SuperviseOutcome out;
    // Alternate which runs first so neither side always finds warm caches.
    for (int side = 0; side < 2; ++side) {
      const double t0 = now_s();
      if ((side == 0) == (key % 2 == 0)) {
        direct = be.evaluate(spec).avg_online_per_file;
        bare_s = now_s() - t0;
      } else {
        out = btmf::robust::supervise(task, supervisor, key);
        supervised_s = now_s() - t0;
      }
    }
    ++key;
    overhead_us.push_back((supervised_s - bare_s) * 1e6);
    result.checks.expect(
        out.ok() ? check_relative("supervised evaluate",
                                  out.values.at("avg_online_per_file"),
                                  direct, 0.0)
                 : "supervised evaluate failed: " + out.failure.message);
  }
  result.layers["robust.overhead_us"] = median(overhead_us);
}

namespace {

/// Sum of the integer `field` in every event named `name` of a Chrome
/// trace written by obs::TraceWriter, and the number of such events.
std::pair<double, std::size_t> sum_event_field(std::string_view json,
                                               std::string_view name,
                                               std::string_view field) {
  std::string tag = "\"name\": \"";
  tag.append(name).append("\"");
  std::string key = "\"";
  key.append(field).append("\": ");
  double sum = 0.0;
  std::size_t events = 0;
  for (std::size_t at = json.find(tag); at != std::string_view::npos;
       at = json.find(tag, at + tag.size())) {
    ++events;
    if (field.empty()) continue;
    const std::size_t end = json.find('}', json.find("\"args\"", at));
    const std::size_t pos = json.find(key, at);
    if (pos != std::string_view::npos && pos < end) {
      sum += std::strtod(json.data() + pos + key.size(), nullptr);
    }
  }
  return {sum, events};
}

}  // namespace

void probe_solver(const std::string& backend,
                  const std::vector<btmf::model::ScenarioSpec>& specs,
                  RunResult& result) {
  const btmf::model::Backend& be = btmf::model::require_backend(backend);
  double accepted = 0.0;
  double rejected = 0.0;
  double rungs = 0.0;
  for (btmf::model::ScenarioSpec spec : specs) {
    btmf::obs::TraceWriter solver_trace("solver");
    spec.solver.trace = &solver_trace;
    result.checks.expect(check_ok("solver probe", be.evaluate(spec)));
    const std::string json = solver_trace.to_json();
    accepted += sum_event_field(json, "ode.integrate", "accepted").first;
    rejected += sum_event_field(json, "ode.integrate", "rejected").first;
    rungs += static_cast<double>(
        sum_event_field(json, "equilibrium.rung", "").second);
  }
  const auto n = static_cast<double>(specs.size());
  result.layers["math.ode_steps_per_eval"] =
      n > 0 ? (accepted + rejected) / n : 0.0;
  result.layers["math.ode_rejected_share"] =
      share(rejected, accepted + rejected);
  result.layers["math.equilibrium_rungs_per_eval"] = n > 0 ? rungs / n : 0.0;
}

void probe_cache(
    const std::string& dir,
    const std::vector<std::pair<btmf::sweep::CacheKey,
                                btmf::sweep::PointResult>>& entries,
    RunResult& result) {
  remove_tree(dir);
  {
    const btmf::sweep::DiskCache cache(dir);
    std::vector<double> store_us;
    std::vector<double> lookup_us;
    for (const auto& [key, value] : entries) {
      const double t0 = now_s();
      cache.store(key, value);
      store_us.push_back((now_s() - t0) * 1e6);
    }
    for (const auto& [key, value] : entries) {
      btmf::sweep::PointResult got;
      const double t0 = now_s();
      const btmf::sweep::CacheLookup found = cache.lookup(key, &got);
      lookup_us.push_back((now_s() - t0) * 1e6);
      result.checks.expect(
          found == btmf::sweep::CacheLookup::kHit
              ? check_identical_values("cache replay", got.values,
                                       value.values)
              : "cache replay: stored entry did not hit");
    }
    result.layers["sweep.store_us_p50"] = median(store_us);
    result.layers["sweep.lookup_us_p50"] = median(lookup_us);
  }
  remove_tree(dir);
}

void probe_trace_overhead(const Tracer& tracer, double timed_wall_s,
                          RunResult& result) {
  constexpr int kSpans = 20000;
  Tracer probe(true);
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) {
    auto span = probe.span("probe", 1);
  }
  const double per_span_s = (now_s() - t0) / kSpans;
  const auto spans = static_cast<double>(tracer.records().size());
  result.note("trace.spans", spans, "count");
  result.note("trace.span_cost_us", per_span_s * 1e6, "us");
  result.layers["obs.trace_overhead_share"] =
      share(spans * per_span_s, timed_wall_s);
}

}  // namespace perfbench
