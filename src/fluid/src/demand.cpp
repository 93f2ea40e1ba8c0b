#include "btmf/fluid/demand.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "btmf/util/check.h"
#include "btmf/util/strings.h"

namespace btmf::fluid {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

bool finite(double v) { return std::isfinite(v); }

}  // namespace

std::string_view to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kDiurnal:
      return "diurnal";
    case ArrivalKind::kFlashCrowd:
      return "flash";
  }
  return "?";
}

double ArrivalProcess::rate_at(double base, double t) const {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return base;
    case ArrivalKind::kDiurnal:
      return base * (1.0 + amplitude * std::sin(kTwoPi * (t - phase) / period));
    case ArrivalKind::kFlashCrowd: {
      if (t < t0) return base;
      const double since = t - t0;
      // Pulse n covers [n*interval, n*interval + width) relative to t0.
      const double step = interval > 0.0 ? interval : width;
      const double n = std::floor(since / step);
      if (n >= static_cast<double>(pulses)) return base;
      return since - n * step < width ? base * boost : base;
    }
  }
  return base;
}

double ArrivalProcess::peak_rate(double base) const {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return base;
    case ArrivalKind::kDiurnal:
      return base * (1.0 + amplitude);
    case ArrivalKind::kFlashCrowd:
      return base * boost;
  }
  return base;
}

double ArrivalProcess::mean_rate(double base, double a, double b) const {
  BTMF_CHECK_MSG(b > a, "mean_rate needs a window with b > a");
  switch (kind) {
    case ArrivalKind::kPoisson:
      return base;
    case ArrivalKind::kDiurnal: {
      // Integral of sin(w(t - phase)) over [a, b] is
      // (cos(w(a - phase)) - cos(w(b - phase))) / w.
      const double w = kTwoPi / period;
      const double integral =
          (std::cos(w * (a - phase)) - std::cos(w * (b - phase))) / w;
      return base * (1.0 + amplitude * integral / (b - a));
    }
    case ArrivalKind::kFlashCrowd: {
      // Sum the overlap of [a, b] with each pulse window exactly.
      const double step = interval > 0.0 ? interval : width;
      double boosted = 0.0;
      for (unsigned n = 0; n < pulses; ++n) {
        const double lo = t0 + static_cast<double>(n) * step;
        const double hi = lo + width;
        if (lo >= b) break;
        boosted += std::max(0.0, std::min(b, hi) - std::max(a, lo));
      }
      return base * (1.0 + (boost - 1.0) * boosted / (b - a));
    }
  }
  return base;
}

std::vector<double> ArrivalProcess::breakpoints(double a, double b) const {
  std::vector<double> out;
  if (kind != ArrivalKind::kFlashCrowd) return out;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double step = interval > 0.0 ? interval : width;
  for (unsigned n = 0; n < pulses; ++n) {
    const double lo = t0 + static_cast<double>(n) * step;
    for (const double edge : {lo, lo + width}) {
      // rate_at rounds (t - t0) / step, so its jump can sit an ulp or two
      // off the computed edge: find it in a few ulps around. Back-to-back
      // pulses have no jump between them and yield nothing.
      double t = edge;
      for (int u = 0; u < 4; ++u) t = std::nextafter(t, -kInf);
      for (int u = 0; u < 8; ++u, t = std::nextafter(t, kInf)) {
        if (rate_at(1.0, t) == rate_at(1.0, std::nextafter(t, -kInf))) {
          continue;
        }
        if (t > a && t < b && (out.empty() || out.back() < t)) {
          out.push_back(t);
        }
        break;
      }
    }
  }
  return out;
}

void ArrivalProcess::validate() const {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return;
    case ArrivalKind::kDiurnal:
      BTMF_CHECK_MSG(finite(amplitude) && amplitude >= 0.0 && amplitude <= 1.0,
                     "diurnal amplitude must lie in [0, 1]");
      BTMF_CHECK_MSG(finite(period) && period > 0.0,
                     "diurnal period must be positive");
      BTMF_CHECK_MSG(finite(phase), "diurnal phase must be finite");
      return;
    case ArrivalKind::kFlashCrowd:
      BTMF_CHECK_MSG(finite(t0) && t0 >= 0.0, "flash t0 must be >= 0");
      BTMF_CHECK_MSG(finite(width) && width > 0.0,
                     "flash pulse width must be positive");
      BTMF_CHECK_MSG(finite(boost) && boost >= 1.0, "flash boost must be >= 1");
      BTMF_CHECK_MSG(pulses >= 1, "flash pulse count must be >= 1");
      BTMF_CHECK_MSG(finite(interval) && interval >= 0.0,
                     "flash interval must be >= 0");
      BTMF_CHECK_MSG(pulses == 1 || interval >= width,
                     "flash interval must be >= width when pulses > 1");
      return;
  }
  BTMF_CHECK_MSG(false, "unknown arrival kind");
}

void validate_classes(const std::vector<BandwidthClass>& classes) {
  for (const BandwidthClass& cls : classes) {
    BTMF_CHECK_MSG(finite(cls.weight) && cls.weight > 0.0,
                   "bandwidth class weight must be positive");
    BTMF_CHECK_MSG(finite(cls.upload_scale) && cls.upload_scale > 0.0,
                   "bandwidth class upload scale must be positive");
    BTMF_CHECK_MSG(finite(cls.download_cap) && cls.download_cap >= 0.0,
                   "bandwidth class download cap must be >= 0 (0 = unlimited)");
  }
}

double total_weight(const std::vector<BandwidthClass>& classes) {
  double sum = 0.0;
  for (const BandwidthClass& cls : classes) sum += cls.weight;
  return sum;
}

std::string format_arrival(const ArrivalProcess& arrival) {
  const auto exact = util::format_double_exact;
  switch (arrival.kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kDiurnal:
      return "diurnal," + exact(arrival.amplitude) + "," +
             exact(arrival.period) + "," + exact(arrival.phase);
    case ArrivalKind::kFlashCrowd:
      return "flash," + exact(arrival.t0) + "," + exact(arrival.width) + "," +
             exact(arrival.boost) + "," + exact(arrival.interval) + "," +
             std::to_string(arrival.pulses);
  }
  return "poisson";
}

std::string format_classes(const std::vector<BandwidthClass>& classes) {
  const auto exact = util::format_double_exact;
  std::string out;
  for (const BandwidthClass& cls : classes) {
    if (!out.empty()) out += '|';
    out += exact(cls.weight) + "," + exact(cls.upload_scale) + "," +
           exact(cls.download_cap);
  }
  return out;
}

ArrivalProcess parse_arrival(std::string_view text) {
  const std::vector<std::string> parts = util::split(text, ',');
  BTMF_CHECK_MSG(!parts.empty() && !parts[0].empty(),
                 "arrival process must name a kind");
  ArrivalProcess arrival;
  const std::string& kind = parts[0];
  if (kind == "poisson") {
    BTMF_CHECK_MSG(parts.size() == 1, "arrival 'poisson' takes no parameters");
    arrival.kind = ArrivalKind::kPoisson;
  } else if (kind == "diurnal") {
    BTMF_CHECK_MSG(parts.size() == 4,
                   "arrival 'diurnal' needs amplitude,period,phase");
    arrival.kind = ArrivalKind::kDiurnal;
    arrival.amplitude = util::parse_double(parts[1], "diurnal amplitude");
    arrival.period = util::parse_double(parts[2], "diurnal period");
    arrival.phase = util::parse_double(parts[3], "diurnal phase");
  } else if (kind == "flash") {
    BTMF_CHECK_MSG(parts.size() == 6,
                   "arrival 'flash' needs t0,width,boost,interval,pulses");
    arrival.kind = ArrivalKind::kFlashCrowd;
    arrival.t0 = util::parse_double(parts[1], "flash t0");
    arrival.width = util::parse_double(parts[2], "flash width");
    arrival.boost = util::parse_double(parts[3], "flash boost");
    arrival.interval = util::parse_double(parts[4], "flash interval");
    const long long pulses = util::parse_int(parts[5], "flash pulses");
    BTMF_CHECK_MSG(pulses >= 1 && pulses <= 1000000,
                   "flash pulses must lie in [1, 1e6]");
    arrival.pulses = static_cast<unsigned>(pulses);
  } else {
    BTMF_CHECK_MSG(false, "unknown arrival kind '" + kind +
                              "' (want poisson|diurnal|flash)");
  }
  arrival.validate();
  return arrival;
}

std::vector<BandwidthClass> parse_classes(std::string_view text) {
  std::vector<BandwidthClass> classes;
  if (text.empty()) return classes;
  for (const std::string& entry : util::split(text, '|')) {
    const std::vector<std::string> parts = util::split(entry, ',');
    BTMF_CHECK_MSG(parts.size() == 3,
                   "bandwidth class needs weight,upload_scale,download_cap");
    BandwidthClass cls;
    cls.weight = util::parse_double(parts[0], "class weight");
    cls.upload_scale = util::parse_double(parts[1], "class upload scale");
    cls.download_cap = util::parse_double(parts[2], "class download cap");
    classes.push_back(cls);
  }
  validate_classes(classes);
  return classes;
}

}  // namespace btmf::fluid
