#include "btmf/sweep/cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "btmf/util/error.h"
#include "btmf/util/strings.h"
#include "btmf/util/version.h"

namespace btmf::sweep {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMagic = "btmf-sweep-cache";

/// The writing process's id, for cross-process-unique temp names.
long process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

/// Key material and stored lines are newline-delimited; a name containing
/// a newline (or a sweep name acting as a path) would corrupt the format.
void check_token(std::string_view token, std::string_view what) {
  if (token.empty()) {
    throw ConfigError("sweep cache: " + std::string(what) +
                      " must be non-empty");
  }
  if (token.find('\n') != std::string_view::npos) {
    throw ConfigError("sweep cache: " + std::string(what) +
                      " must not contain newlines");
  }
}

}  // namespace

double PointResult::at(std::string_view name) const {
  const auto it = values.find(std::string(name));
  if (it == values.end()) {
    throw ConfigError("point result has no value named '" +
                      std::string(name) + "'");
  }
  return it->second;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string cache_format_salt() {
  std::string salt = "v";
  salt += std::to_string(kCacheFormatVersion);
  salt += '/';
  salt += kVersionString;
  return salt;
}

std::size_t sweep_stale_temporaries(const std::string& root,
                                    double max_age_seconds) {
  std::size_t removed = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  fs::recursive_directory_iterator it(
      root, fs::directory_options::skip_permission_denied, ec);
  if (ec) return removed;
  while (it != fs::recursive_directory_iterator()) {
    const fs::directory_entry entry = *it;
    it.increment(ec);
    if (ec) break;  // unreadable directory mid-walk: stop, stay silent
    if (!entry.is_regular_file(ec) || ec) continue;
    if (entry.path().filename().string().find(".tmp.") ==
        std::string::npos) {
      continue;
    }
    const fs::file_time_type mtime = entry.last_write_time(ec);
    if (ec) continue;
    const double age =
        std::chrono::duration<double>(now - mtime).count();
    if (age < max_age_seconds) continue;  // a live writer may own it
    if (fs::remove(entry.path(), ec) && !ec) ++removed;
  }
  return removed;
}

std::string CacheKey::material() const {
  // Library version + format version are the "code salt": a release that
  // changes any model output invalidates every entry wholesale.
  std::string out = cache_format_salt();
  out += "\nsweep ";
  out += sweep;
  out += "\nspec ";
  out += spec;
  out += "\npoint ";
  out += point;
  return out;
}

DiskCache::DiskCache(std::string root) : root_(std::move(root)) {
  if (root_.empty()) throw ConfigError("sweep cache root must be non-empty");
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    throw IoError("cannot create sweep cache directory '" + root_ +
                  "': " + ec.message());
  }
  // Writers that crashed between temp-file create and rename leave
  // orphans; reclaim them here so a long-lived cache directory cannot
  // accumulate garbage. The age threshold protects concurrent writers.
  (void)sweep_stale_temporaries(root_, kStaleTempMaxAgeSeconds);
}

std::string DiskCache::entry_path(const CacheKey& key) const {
  check_token(key.sweep, "sweep name");
  // The sweep name becomes a subdirectory; keep it a single path level.
  if (key.sweep.find('/') != std::string::npos ||
      key.sweep.find('\\') != std::string::npos) {
    throw ConfigError("sweep name '" + key.sweep +
                      "' must not contain path separators");
  }
  return root_ + "/" + key.sweep + "/" + hash_hex(key.hash()) + ".point";
}

std::optional<PointResult> DiskCache::load(const CacheKey& key) const {
  PointResult result;
  if (lookup(key, &result) != CacheLookup::kHit) return std::nullopt;
  return result;
}

CacheLookup DiskCache::lookup(const CacheKey& key,
                              PointResult* result) const {
  std::ifstream file(entry_path(key));
  if (!file) return CacheLookup::kMiss;

  // From here on the file exists: any verification failure is corruption
  // (torn write, bit rot, tampering), with one exception — stored key
  // material that parses but belongs to a *different* key, which is a
  // benign hash collision and therefore a plain miss.
  std::string line;
  if (!std::getline(file, line) || line != kMagic) {
    return CacheLookup::kCorrupt;
  }

  // The stored key material spans several lines; re-read it verbatim and
  // compare against the expected material (guards hash collisions and
  // stale formats alike).
  const std::string expected = key.material();
  std::string stored;
  const std::size_t material_lines =
      1 + static_cast<std::size_t>(
              std::count(expected.begin(), expected.end(), '\n'));
  for (std::size_t i = 0; i < material_lines; ++i) {
    if (!std::getline(file, line)) return CacheLookup::kCorrupt;
    if (i != 0) stored += '\n';
    stored += line;
  }
  if (stored != expected) return CacheLookup::kMiss;

  PointResult parsed;
  bool complete = false;
  while (std::getline(file, line)) {
    if (line == "end") {
      complete = true;
      break;
    }
    // "value <name> <exact double>"; name cannot contain spaces.
    if (!util::starts_with(line, "value ")) return CacheLookup::kCorrupt;
    const std::string_view rest = std::string_view(line).substr(6);
    const std::size_t sep = rest.rfind(' ');
    if (sep == std::string_view::npos || sep == 0) {
      return CacheLookup::kCorrupt;
    }
    const std::string name(rest.substr(0, sep));
    double value = 0.0;
    try {
      value = util::parse_double(rest.substr(sep + 1), "cache value");
    } catch (const ConfigError&) {
      return CacheLookup::kCorrupt;
    }
    if (!parsed.values.emplace(name, value).second) {
      return CacheLookup::kCorrupt;
    }
  }
  if (!complete) return CacheLookup::kCorrupt;  // truncated — recompute
  *result = std::move(parsed);
  return CacheLookup::kHit;
}

void DiskCache::quarantine(const CacheKey& key) const {
  const std::string path = entry_path(key);
  std::error_code ec;
  fs::rename(path, path + ".quarantined", ec);
  if (ec) fs::remove(path, ec);  // fallback: at least clear the slot
}

void DiskCache::store(const CacheKey& key, const PointResult& result) const {
  for (const auto& [name, value] : result.values) {
    check_token(name, "value name");
    if (name.find(' ') != std::string::npos) {
      throw ConfigError("sweep value name '" + name +
                        "' must not contain spaces");
    }
    (void)value;
  }

  const std::string path = entry_path(key);
  const fs::path dir = fs::path(path).parent_path();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create sweep cache directory '" + dir.string() +
                  "': " + ec.message());
  }

  // Unique temp name per (process, write): the pid separates concurrent
  // *processes* sharing one cache directory (thread ids are only unique
  // within a process, so two processes could previously interleave partial
  // writes into the same temp file) and the counter separates concurrent
  // threads and successive writes within this process. rename() then
  // publishes the entry atomically, so concurrent writers of the same key
  // are benign (last rename wins with identical content) and an interrupt
  // never leaves a half-written entry under the final name.
  static std::atomic<std::uint64_t> write_counter{0};
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << process_id() << "."
           << write_counter.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = tmp_name.str();
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) throw IoError("cannot open '" + tmp + "' for writing");
    file << kMagic << '\n' << key.material() << '\n';
    for (const auto& [name, value] : result.values) {
      file << "value " << name << ' ' << util::format_double_exact(value)
           << '\n';
    }
    file << "end\n";
    file.flush();
    if (!file) throw IoError("write to '" + tmp + "' failed");
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw IoError("cannot publish sweep cache entry '" + path + "'");
  }
}

}  // namespace btmf::sweep
