#include "btmf/robust/isolate.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define BTMF_HAS_FORK 1
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define BTMF_HAS_FORK 0
#endif

#include "btmf/util/error.h"
#include "btmf/util/strings.h"

namespace btmf::robust {

#if BTMF_HAS_FORK

namespace {

// Child -> parent report, one escaped line per record:
//   ok
//   value <name> <exact-double>   (repeated)
//   end
// or
//   fail <kind> <escaped message>
//   end
// The trailing "end" lets the parent distinguish a complete report from a
// child that died mid-write (treated as kCrash).

void write_all(int fd, const std::string& text) {
  const char* data = text.data();
  std::size_t left = text.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent gone; nothing useful the child can do
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
}

[[noreturn]] void child_main(int write_fd, const std::function<Values()>& fn) {
  std::string report;
  try {
    const Values values = fn();
    report = "ok\n";
    for (const auto& [name, value] : values) {
      report += "value " + name + " " + util::format_double_exact(value) +
                "\n";
    }
  } catch (...) {
    const Failure failure = classify_active_exception();
    report = std::string("fail ") + to_string(failure.kind) + " " +
             escape_line(failure.message) + "\n";
  }
  report += "end\n";
  write_all(write_fd, report);
  ::close(write_fd);
  // _exit, not exit: skip atexit handlers and static destructors that
  // belong to the parent's lifecycle (flushing its streams twice, ...).
  ::_exit(0);
}

/// Reads until EOF or deadline. Returns false on deadline expiry.
bool read_until_eof(int fd, double timeout_s, std::string* out) {
  char buffer[4096];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    if (timeout_s > 0.0) {
      struct pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      const int timeout_ms = static_cast<int>(left.count()) + 1;  // round up
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw IoError(std::string("poll on isolation pipe failed: ") +
                      std::strerror(errno));
      }
      if (ready == 0) return false;  // deadline
    }
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("read from isolation pipe failed: ") +
                    std::strerror(errno));
    }
    if (n == 0) return true;  // EOF: child closed its end
    out->append(buffer, static_cast<std::size_t>(n));
  }
}

/// Parses the child's report. Returns false when it is incomplete or
/// malformed (the caller reports kCrash).
bool parse_report(const std::string& report, Attempt* outcome) {
  const std::vector<std::string> lines = util::split(report, '\n');
  bool saw_header = false;
  bool saw_end = false;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    if (!saw_header) {
      if (line == "ok") {
        saw_header = true;
        continue;
      }
      if (util::starts_with(line, "fail ")) {
        const std::string rest = line.substr(5);
        const std::size_t space = rest.find(' ');
        const std::string kind_token =
            space == std::string::npos ? rest : rest.substr(0, space);
        try {
          outcome->failure.kind = failure_kind_from_string(kind_token);
        } catch (const ConfigError&) {
          return false;
        }
        outcome->failure.message =
            space == std::string::npos
                ? std::string()
                : unescape_line(rest.substr(space + 1));
        saw_header = true;
        continue;
      }
      return false;
    }
    if (util::starts_with(line, "value ")) {
      const std::string rest = line.substr(6);
      const std::size_t space = rest.find(' ');
      if (space == std::string::npos) return false;
      outcome->values[rest.substr(0, space)] = util::parse_double(
          rest.substr(space + 1), "isolation report value");
      continue;
    }
    return false;
  }
  return saw_header && saw_end;
}

void reap(pid_t pid, int* status) {
  for (;;) {
    if (::waitpid(pid, status, 0) >= 0) return;
    if (errno != EINTR) {
      *status = 0;
      return;
    }
  }
}

}  // namespace

bool isolation_supported() { return true; }

Attempt run_isolated(const std::function<Values()>& fn, double timeout_s) {
  check_deadline(timeout_s);
  // pipe() -> fork() -> close(write end) is one critical section: if two
  // pool threads interleave here, thread A's child inherits — and holds
  // open for its whole evaluation — thread B's pipe write end, so B's
  // parent never sees EOF and reports a spurious timeout. Serializing the
  // window guarantees the only stray write end at fork time is the
  // child's own, and keeps the multithreaded-fork surface minimal (see
  // the header note on POSIX fork semantics).
  static std::mutex fork_mutex;
  int fds[2];
  pid_t pid;
  {
    const std::lock_guard<std::mutex> lock(fork_mutex);
    if (::pipe(fds) != 0) {
      throw IoError(std::string("pipe for isolation worker failed: ") +
                    std::strerror(errno));
    }
    pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw IoError(std::string("fork for isolation worker failed: ") +
                    std::strerror(errno));
    }
    if (pid == 0) {
      ::close(fds[0]);
      child_main(fds[1], fn);  // never returns
    }
    ::close(fds[1]);
  }

  Attempt outcome;
  std::string report;
  bool timed_out = false;
  try {
    timed_out = !read_until_eof(fds[0], timeout_s, &report);
  } catch (...) {
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    int status = 0;
    reap(pid, &status);
    throw;
  }
  ::close(fds[0]);

  if (timed_out) {
    ::kill(pid, SIGKILL);
    int status = 0;
    reap(pid, &status);
    outcome.failure = {FailureKind::kTimeout,
                       "isolated worker exceeded " +
                           util::format_double(timeout_s) +
                           "s deadline (killed)"};
    return outcome;
  }

  int status = 0;
  reap(pid, &status);

  if (WIFSIGNALED(status)) {
    outcome.failure = {FailureKind::kCrash,
                       std::string("isolated worker died on signal ") +
                           std::to_string(WTERMSIG(status)) + " (" +
                           strsignal(WTERMSIG(status)) + ")"};
    return outcome;
  }
  if (parse_report(report, &outcome)) return outcome;
  // Exited (possibly with 0) without a complete report: something killed
  // the run before the protocol finished — e.g. a sanitizer aborting on a
  // caught SIGSEGV, or exit() from deep inside a library. Classify as a
  // crash so it is contained and retried like one.
  outcome.values.clear();
  outcome.failure = {FailureKind::kCrash,
                     "isolated worker exited (status " +
                         std::to_string(WEXITSTATUS(status)) +
                         ") without a complete report"};
  return outcome;
}

#else  // !BTMF_HAS_FORK

bool isolation_supported() { return false; }

Attempt run_isolated(const std::function<Values()>&, double timeout_s) {
  check_deadline(timeout_s);
  Attempt outcome;
  outcome.failure = {FailureKind::kUnsupported,
                     "crash isolation requires fork(); unavailable on this "
                     "platform"};
  return outcome;
}

#endif

}  // namespace btmf::robust
