#include "checks.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void append(std::vector<double>& out, const std::vector<double>& values) {
  out.insert(out.end(), values.begin(), values.end());
}

}  // namespace

std::string check_relative(const std::string& what, double got, double want,
                           double tol) {
  if (!std::isfinite(got) || !std::isfinite(want)) {
    return what + ": non-finite value (got " + fmt(got) + ", want " +
           fmt(want) + ")";
  }
  const double scale = std::abs(want) > 0.0 ? std::abs(want) : 1.0;
  const double rel = std::abs(got - want) / scale;
  if (rel <= tol) return "";
  return what + ": relative difference " + fmt(rel) + " > " + fmt(tol) +
         " (got " + fmt(got) + ", want " + fmt(want) + ")";
}

std::vector<double> outcome_digest(const btmf::model::Outcome& outcome) {
  std::vector<double> d{outcome.avg_online_per_file,
                        outcome.avg_download_per_file,
                        outcome.avg_online_per_user};
  append(d, outcome.per_class.online_time);
  append(d, outcome.per_class.download_time);
  if (outcome.sim) {
    const btmf::sim::SimResult& s = *outcome.sim;
    d.push_back(static_cast<double>(s.events_processed));
    d.push_back(static_cast<double>(s.total_arrivals));
    d.push_back(static_cast<double>(s.total_users));
    d.push_back(static_cast<double>(s.peak_live_peers));
  }
  if (outcome.chunk) {
    const btmf::sim::ChunkSimResult& c = *outcome.chunk;
    d.push_back(static_cast<double>(c.completed_peers));
    d.push_back(c.mean_download_time);
    d.push_back(c.peak_downloaders);
    d.push_back(c.emergent_eta);
    d.push_back(c.idle_fraction);
  }
  return d;
}

std::string check_identical(const std::string& what,
                            const btmf::model::Outcome& a,
                            const btmf::model::Outcome& b) {
  if (!a.ok() || !b.ok()) {
    return what + ": outcome not ok (" + a.error + b.error + ")";
  }
  const std::vector<double> da = outcome_digest(a);
  const std::vector<double> db = outcome_digest(b);
  if (da.size() != db.size()) return what + ": outcome shapes differ";
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (!same_bits(da[i], db[i])) {
      return what + ": field " + std::to_string(i) + " differs (" +
             fmt(da[i]) + " vs " + fmt(db[i]) + ")";
    }
  }
  return "";
}

std::string check_identical_values(const std::string& what,
                                   const std::map<std::string, double>& got,
                                   const std::map<std::string, double>& want) {
  if (got.size() != want.size()) return what + ": value sets differ";
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    if (it == got.end()) return what + ": missing value " + name;
    if (!same_bits(it->second, value)) {
      return what + ": " + name + " = " + fmt(it->second) + ", want " +
             fmt(value);
    }
  }
  return "";
}

std::string check_ok(const std::string& what,
                     const btmf::model::Outcome& outcome) {
  if (!outcome.ok()) {
    return what + ": " + btmf::model::to_string(outcome.status) + " (" +
           outcome.error + ")";
  }
  const double v = outcome.avg_online_per_file;
  if (!std::isfinite(v) || v <= 0.0) {
    return what + ": headline " + fmt(v) + " is not a positive number";
  }
  return "";
}

std::string check_accounting(const std::string& phase, std::size_t sent,
                             std::size_t succeeded, std::size_t failed) {
  if (sent == succeeded + failed) return "";
  return phase + ": sent " + std::to_string(sent) + " != succeeded " +
         std::to_string(succeeded) + " + failed " + std::to_string(failed);
}

std::string check_count(const std::string& what, std::size_t got,
                        std::size_t want) {
  if (got == want) return "";
  return what + ": " + std::to_string(got) + ", want exactly " +
         std::to_string(want);
}

bool CheckLog::expect(const std::string& reason) {
  if (reason.empty()) return true;
  failures_.push_back(reason);
  return false;
}

}  // namespace perfbench
