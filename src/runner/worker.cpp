#include "runner/worker.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "linalg/errors.h"
#include "linalg/pool.h"
#include "obs/append_file.h"
#include "obs/fork.h"
#include "obs/trace.h"

namespace performa::runner {

namespace {

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

int wait_for(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

// Classify a reaped worker from its wait status and drained payload.
WorkerReport classify_worker(const std::string& payload, int status,
                             bool timed_out, double timeout_seconds) {
  WorkerReport report;
  if (payload.rfind("error ", 0) == 0) {
    const std::size_t nl = payload.find('\n');
    report.message = payload.substr(6, nl == std::string::npos
                                           ? std::string::npos
                                           : nl - 6);
  }
  if (timed_out) {
    report.outcome = Outcome::kTimeout;
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "worker exceeded %.3gs wall-clock budget (SIGKILL)",
                  timeout_seconds);
    report.message = msg;
  } else if (WIFSIGNALED(status)) {
    report.outcome = Outcome::kCrash;
    report.message =
        std::string("worker killed by signal ") +
        std::to_string(WTERMSIG(status)) + " (" +
        ::strsignal(WTERMSIG(status)) + ")";
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == kExitOk) {
    if (decode_result(payload, report.result)) {
      report.outcome = Outcome::kOk;
    } else {
      report.outcome = Outcome::kCrash;
      report.message = "worker exited 0 but its result payload is torn";
    }
  } else if (WIFEXITED(status)) {
    report.outcome = outcome_from_exit_code(WEXITSTATUS(status));
    if (report.message.empty()) {
      report.message =
          "worker exited with code " + std::to_string(WEXITSTATUS(status));
    }
  } else {
    report.outcome = Outcome::kCrash;
    report.message = "worker ended in an unexpected wait status";
  }
  return report;
}

}  // namespace

std::string encode_result(const PointResult& result) {
  std::string out;
  for (const auto& [name, value] : result.metrics) {
    out += "metric ";
    out += name;
    out += ' ';
    out += hex_double(value);
    out += '\n';
  }
  out += "ok\n";
  return out;
}

bool decode_result(const std::string& payload, PointResult& out) {
  PointResult r;
  bool complete = false;
  std::size_t start = 0;
  while (start < payload.size()) {
    if (complete) return false;  // trailing data after the sentinel
    std::size_t nl = payload.find('\n', start);
    if (nl == std::string::npos) return false;  // torn final line
    const std::string line = payload.substr(start, nl - start);
    start = nl + 1;
    if (line == "ok") {
      complete = true;
    } else if (line.rfind("metric ", 0) == 0) {
      const std::size_t sp = line.rfind(' ');
      if (sp <= 7) return false;
      const std::string name = line.substr(7, sp - 7);
      const std::string text = line.substr(sp + 1);
      char* end = nullptr;
      const double value = std::strtod(text.c_str(), &end);
      if (name.empty() || end != text.c_str() + text.size()) return false;
      r.metrics.emplace_back(name, value);
    } else {
      return false;
    }
  }
  if (!complete) return false;
  out = std::move(r);
  return true;
}

WorkerHandle spawn_worker(const PointFn& fn, unsigned concurrent) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw NumericalError("spawn_worker: pipe() failed");
  }
  WorkerHandle handle;
  handle.started = std::chrono::steady_clock::now();

  // The worker inherits every unflushed stdio buffer. Its own _exit
  // skips them, but a sanitizer's _exit flushes them: a harness whose
  // stdout is a file then printed its banner once per worker.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw NumericalError("spawn_worker: fork() failed");
  }

  if (pid == 0) {
    // Worker child: compute, ship the payload, and _exit without running
    // parent-owned atexit handlers or flushing parent stdio twice.
    // (Read ends of sibling workers' pipes may be inherited here; that
    // is harmless -- EOF is governed by write ends, and the parent
    // closes its copy of every write end right after forking.)
    ::close(fds[0]);
    obs::ForkHandoff::enter_child();
    linalg::set_pool_share(concurrent);
    int code = kExitError;
    try {
      PointResult result;
      {
        obs::Span span("runner.worker.point");
        result = fn();
      }
      obs::write_all(fds[1], encode_result(result), "worker result pipe");
      code = kExitOk;
    } catch (...) {
      // A failed result write lands here too: kExitError, a crash.
      const ClassifiedError e = classify_current_exception();
      code = e.exit_code;
      try {
        obs::write_all(fds[1], "error " + e.message + "\n",
                       "worker result pipe");
      } catch (...) {
        // The supervisor is gone; the exit code still tells the story.
      }
    }
    // _exit runs no thread_local destructors: join the point's pool
    // threads first, so the spans buffered on them reach the trace.
    linalg::pool_shutdown();
    obs::ForkHandoff::leave_child();
    ::close(fds[1]);
    ::_exit(code);
  }

  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK);
  handle.pid = pid;
  handle.fd = fds[0];
  return handle;
}

void drain_worker(WorkerHandle& worker) {
  if (worker.fd < 0 || worker.eof) return;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(worker.fd, buf, sizeof buf);
    if (n > 0) {
      worker.payload.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      worker.eof = true;  // worker closed its end (exit or kill)
      return;
    }
    if (errno == EINTR) continue;
    return;  // EAGAIN: drained everything currently buffered
  }
}

void kill_worker(const WorkerHandle& worker) noexcept {
  if (worker.running()) ::kill(worker.pid, SIGKILL);
}

WorkerReport reap_worker(WorkerHandle& worker, bool timed_out,
                         double timeout_seconds) {
  PERFORMA_EXPECTS(worker.running(), "reap_worker: no live worker");
  // Pick up any bytes that raced the final poll, then release the pipe.
  drain_worker(worker);
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  const int status = wait_for(worker.pid);
  worker.pid = -1;

  WorkerReport report =
      classify_worker(worker.payload, status, timed_out, timeout_seconds);
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    worker.started)
          .count();
  return report;
}

}  // namespace performa::runner
