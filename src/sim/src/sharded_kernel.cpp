#include "btmf/sim/sharded_kernel.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "btmf/parallel/fan_out.h"
#include "btmf/util/check.h"
#include "btmf/util/stopwatch.h"

namespace btmf::sim {

ShardedKernel::ShardedKernel(const SimConfig& config, PolicyFactory factory)
    : cfg_(config), factory_(std::move(factory)) {
  cfg_.validate();
  BTMF_CHECK_MSG(factory_ != nullptr, "ShardedKernel needs a policy factory");
}

SimResult ShardedKernel::run() {
  util::Stopwatch wall;
  std::unique_ptr<SchemePolicy> probe = factory_();
  if (!probe->shardable()) {
    // Serial legacy path, bit-identical to the pre-sharding kernel.
    EventKernel kernel(cfg_, *probe);
    return kernel.run();
  }

  // A faulted config can only reach here with shards == 1: the fault
  // layer is global (churn picks victims across all torrents, outages
  // gate the shared arrival path) and validate() rejects shards > 1 with
  // a non-empty plan as a typed configuration error.
  const unsigned num_shards =
      std::min(std::max(1U, cfg_.shards), cfg_.num_files);
  const bool paranoid = auditor_enabled(cfg_.paranoid);

  // Shard kernels observe nothing themselves: their sample series and
  // counters surface through ShardOutput and are exported once, merged,
  // by this driver. Only the sampling cadence knob passes through.
  SimConfig shard_cfg = cfg_;
  shard_cfg.obs = obs::ObsSink{};
  shard_cfg.obs.sample_dt = cfg_.obs.sample_dt;

  std::vector<std::unique_ptr<SchemePolicy>> policies;
  std::vector<std::unique_ptr<EventKernel>> kernels;
  policies.reserve(num_shards);
  kernels.reserve(num_shards);
  policies.push_back(std::move(probe));
  for (unsigned s = 1; s < num_shards; ++s) policies.push_back(factory_());
  for (unsigned s = 0; s < num_shards; ++s) {
    kernels.push_back(std::make_unique<EventKernel>(
        shard_cfg, *policies[s], ShardSpec{s, num_shards, true}));
  }

  for (auto& kernel : kernels) kernel->start();

  // One fan_out for the run: index s steps shard s through every epoch
  // end. Shards share no mutable state, so no shard waits for another at
  // an epoch end; the pause points cut every shard's run at the same
  // times. shard_s[s] sums shard s's run_until wall times.
  obs::TraceWriter* const trace = cfg_.obs.trace;
  std::vector<double> shard_s(num_shards, 0.0);
  // fan_out joins every shard before it rethrows, so no shard runs on
  // against kernels about to be destroyed.
  parallel::fan_out(num_shards, cfg_.kernel_threads, [&](std::size_t s,
                                                         std::size_t) {
    EventKernel& kernel = *kernels[s];
    for (unsigned e = 1; e <= kEpochs; ++e) {
      const double t_end = e == kEpochs
                               ? cfg_.horizon
                               : cfg_.horizon * static_cast<double>(e) /
                                     static_cast<double>(kEpochs);
      const util::Stopwatch sw;
      kernel.run_until(t_end);
      const double took = sw.seconds();
      shard_s[s] += took;
      if (paranoid && kernel.current_time() != t_end) {
        std::ostringstream os;
        os.precision(17);  // a clock one ulp short must read differently
        os << "sharded epoch barrier audit failed: shard " << s
           << " paused at t=" << kernel.current_time()
           << " instead of the epoch boundary " << t_end;
        throw AuditError(os.str());
      }
      if (trace != nullptr) {
        std::ostringstream args;
        args << "{\"shard\": " << s << ", \"epoch\": " << e
             << ", \"t_end\": " << t_end << ", \"task_s\": " << took
             << "}";
        trace->instant("sharded.epoch", args.str());
      }
    }
  });

  // Idle time a fully parallel execution would spend waiting for the
  // slowest shard: S x slowest shard - sum of shard times, over the run.
  // Summed as sum(slowest - shard) so every term, and the total, is >= 0.
  const double slowest = *std::max_element(shard_s.begin(), shard_s.end());
  double barrier_wait_s = 0.0;
  for (const double t : shard_s) barrier_wait_s += slowest - t;

  std::vector<ShardOutput> outs;
  outs.reserve(num_shards);
  for (auto& kernel : kernels) outs.push_back(kernel->shard_finish());

  SimResult result =
      merge(std::move(outs), *policies[0], num_shards, barrier_wait_s);
  result.wall_clock_seconds = wall.seconds();
  return result;
}

SimResult ShardedKernel::merge(std::vector<ShardOutput> outs,
                               SchemePolicy& policy, unsigned num_shards,
                               double barrier_wait_s) {
  const unsigned K = cfg_.num_files;
  const double measured = std::max(0.0, cfg_.horizon - cfg_.warmup);

  StatsCollector merged(K);
  for (unsigned k = 0; k < K; ++k) {
    // The arrival process is replayed identically in every shard; shard 0
    // speaks for all of them.
    merged.add_arrivals(k + 1, outs[0].arrivals_by_class[k]);
  }
  std::size_t prim_events = 0;
  std::size_t rate_epochs = 0;
  for (const ShardOutput& o : outs) {
    prim_events += o.prim_events;
    rate_epochs += o.rate_epochs;
  }
  merged.add_events(prim_events);

  // Fold per-user closures into one entry per admission seq, which is
  // global and shard-invariant: a user whose files span shards yields one
  // closure per shard, and the fold rules are order-insensitive
  // (any/max), so the table does not depend on shard layout. Each shard's
  // vector is freed once folded. An entry with cls 0 had no closure.
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const ShardOutput& o : outs) {
    for (const ShardClosure& c : o.closures) {
      lo = std::min(lo, c.seq);
      hi = std::max(hi, c.seq);
    }
  }
  std::vector<ShardClosure> users(lo <= hi ? hi - lo + 1 : 0);
  for (ShardOutput& o : outs) {
    for (const ShardClosure& c : o.closures) {
      ShardClosure& user = users[c.seq - lo];
      if (user.cls == 0) {
        user = c;
        continue;
      }
      user.censored |= c.censored;
      user.aborted |= c.aborted;
      user.online = std::max(user.online, c.online);
      user.download = std::max(user.download, c.download);
    }
    std::vector<ShardClosure>().swap(o.closures);
  }
  obs::MetricsRegistry* metrics = cfg_.obs.metrics;
  const obs::MetricId hist_online =
      metrics != nullptr ? metrics->histogram("sim.user_online_per_file") : 0;
  const obs::MetricId hist_download =
      metrics != nullptr ? metrics->histogram("sim.user_download_per_file")
                         : 0;
  const obs::MetricId hist_files =
      metrics != nullptr ? metrics->histogram("sim.user_files") : 0;
  // Ascending seq: users are recorded in admission order.
  for (const ShardClosure& user : users) {
    if (user.cls == 0) continue;
    if (user.censored != 0) {
      merged.record_censored();
    } else if (user.aborted != 0) {
      merged.record_aborted();
    } else {
      if (metrics != nullptr) {
        const double files = static_cast<double>(user.cls);
        metrics->observe(hist_online, user.online / files);
        metrics->observe(hist_download, user.download / files);
        metrics->observe(hist_files, files);
      }
      merged.record_user(user.cls, user.cls, user.online, user.download, 0.0,
                         false);
    }
  }

  SimResult result = merged.finalize(measured, outs[0].total_arrivals);

  // Per-class population averages: sum the per-(torrent, class) integrals
  // in ascending torrent order. Only the owner shard's cell is nonzero,
  // so the summation order — and hence every float rounding — is the same
  // for any shard count.
  for (unsigned k = 0; k < K; ++k) {
    double down_integral = 0.0;
    double seed_integral = 0.0;
    for (unsigned f = 0; f < K; ++f) {
      const ShardOutput& owner = outs[f % num_shards];
      down_integral += owner.down_integral[f * K + k];
      seed_integral += owner.seed_integral[f * K + k];
    }
    PerClassResult& c = result.classes[k];
    c.avg_downloaders = measured > 0.0 ? down_integral / measured : 0.0;
    c.avg_seeds = measured > 0.0 ? seed_integral / measured : 0.0;
    const double divisor =
        policy.little_divisor(static_cast<double>(k + 1));
    if (c.arrival_rate > 0.0) {
      c.little_download_time = c.avg_downloaders / c.arrival_rate / divisor;
      c.little_online_time =
          (c.avg_downloaders + c.avg_seeds) / c.arrival_rate / divisor;
    }
  }

  result.rate_epochs = rate_epochs;

  // Sample series merge elementwise: every shard records on the identical
  // grid (same cadence, same epoch ends, closed at the horizon).
  const std::vector<double>& axis = outs[0].sample_time;
  for (const ShardOutput& o : outs) {
    BTMF_CHECK_MSG(o.sample_time.size() == axis.size(),
                   "shard sample grids diverged — sampling is not "
                   "deterministic across shards");
  }
  result.population_time = axis;
  result.downloaders_trajectory.assign(K, std::vector<double>(axis.size()));
  result.seeds_trajectory.assign(K, std::vector<double>(axis.size()));
  std::vector<double> live(axis.size(), 0.0);
  std::vector<double> queue(axis.size(), 0.0);
  std::vector<double> recovering(axis.size(), 0.0);
  for (const ShardOutput& o : outs) {
    for (unsigned k = 0; k < K; ++k) {
      for (std::size_t i = 0; i < axis.size(); ++i) {
        result.downloaders_trajectory[k][i] += o.down_series[k][i];
        result.seeds_trajectory[k][i] += o.seed_series[k][i];
      }
    }
    for (std::size_t i = 0; i < axis.size(); ++i) {
      live[i] += o.live_series[i];
      queue[i] += o.queue_series[i];
      recovering[i] = std::max(recovering[i], o.recovering_series[i]);
    }
  }
  double peak = 0.0;
  for (const double v : live) peak = std::max(peak, v);
  result.peak_live_peers = static_cast<std::size_t>(peak);

  // Fault counters: a non-empty plan forces one shard, so shard 0 holds
  // them all (they are zero otherwise).
  result.faults_injected = outs[0].faults_injected;
  result.downloads_killed = outs[0].downloads_killed;
  result.arrivals_dropped = outs[0].arrivals_dropped;
  result.arrivals_queued = outs[0].arrivals_queued;
  result.readmissions = outs[0].readmissions;
  result.readmission_queue_peak = outs[0].readmission_queue_peak;
  result.time_to_recover = outs[0].time_to_recover;
  result.faults_unrecovered = outs[0].faults_unrecovered;

  // Driver-level export into the caller's sinks, mirroring the legacy
  // kernel's counter/gauge names plus the shard-level extras.
  if (cfg_.obs.recorder != nullptr) {
    obs::TimeSeriesRecorder& rec = *cfg_.obs.recorder;
    for (unsigned k = 0; k < K; ++k) {
      const std::string cls = ".c" + std::to_string(k + 1);
      rec.import_series("sim.downloaders" + cls, axis,
                        result.downloaders_trajectory[k]);
      rec.import_series("sim.seeds" + cls, axis, result.seeds_trajectory[k]);
    }
    rec.import_series("sim.live_peers", axis, live);
    rec.import_series("sim.readmission_queue", axis, queue);
    rec.import_series("sim.recovering", axis, recovering);
    // The arrival-rate series is a pure function of the demand spec, so
    // the driver reconstructs it on the merged grid instead of summing
    // shard copies (every shard replays the identical arrival stream).
    std::vector<double> arrival_rate(axis.size());
    for (std::size_t i = 0; i < axis.size(); ++i) {
      arrival_rate[i] = cfg_.arrival.rate_at(cfg_.visit_rate, axis[i]);
    }
    rec.import_series("kernel.arrival_rate", axis, arrival_rate);
  }
  if (metrics != nullptr) {
    obs::MetricsRegistry& m = *metrics;
    m.add(m.counter("sim.events"), result.events_processed);
    m.add(m.counter("sim.arrivals"), result.total_arrivals);
    m.add(m.counter("sim.users_completed"), result.total_users);
    m.add(m.counter("sim.users_censored"), result.censored_users);
    m.add(m.counter("sim.users_aborted"), result.aborted_users);
    m.add(m.counter("sim.rate_epochs"), result.rate_epochs);
    m.add(m.counter("sim.faults_injected"), result.faults_injected);
    m.add(m.counter("sim.downloads_killed"), result.downloads_killed);
    m.add(m.counter("sim.readmissions"), result.readmissions);
    m.set(m.gauge("sim.peak_live_peers"),
          static_cast<double>(result.peak_live_peers));
    m.set(m.gauge("sim.time_to_recover"), result.time_to_recover);
    m.set(m.gauge("sim.readmission_queue_peak"),
          static_cast<double>(result.readmission_queue_peak));
    m.set(m.gauge("sim.kernel.shards"), static_cast<double>(num_shards));
    m.set(m.gauge("sim.kernel.epochs"), static_cast<double>(kEpochs));
    m.set(m.gauge("sim.kernel.barrier_wait_s"), barrier_wait_s);
    for (unsigned s = 0; s < num_shards; ++s) {
      m.add(m.counter("sim.kernel.shard" + std::to_string(s) + ".events"),
            outs[s].prim_events);
    }
  }
  return result;
}

}  // namespace btmf::sim
