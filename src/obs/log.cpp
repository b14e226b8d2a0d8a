#include "obs/log.h"

#include <fcntl.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "obs/flight.h"
#include "obs/sink_hooks.h"
#include "obs/trace.h"

namespace performa::obs {

namespace detail {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};
}  // namespace detail

namespace {

std::int64_t monotonic_ns() noexcept {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double realtime_seconds() noexcept {
  struct timespec ts;
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t thread_id() noexcept {
  thread_local const std::uint64_t tid =
      static_cast<std::uint64_t>(::syscall(SYS_gettid));
  return tid;
}

// Sink state: a file descriptor plus the path it was opened from.
// fd == STDERR_FILENO means "no file sink". Guarded by a mutex -- the
// hot path never reaches here (level gate + token bucket run first),
// and one write(2) per line keeps concurrent lines unsplit anyway.
struct LogRegistry {
  std::mutex mutex;
  int fd = STDERR_FILENO;
  std::string path;
};

LogRegistry& log_registry() {
  static LogRegistry* r = new LogRegistry;  // leaked: shutdown-safe
  return *r;
}

void write_all_fd(int fd, const char* data, std::size_t len) noexcept {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void install_log_fd(int fd, std::string path) {
  LogRegistry& reg = log_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.fd != STDERR_FILENO) ::close(reg.fd);
  reg.fd = fd;
  reg.path = std::move(path);
}

// Query-id state: the std::string is what the process reads; the fixed
// char buffer shadows it so a fatal-signal handler on this thread can
// read the id without touching the allocator.
thread_local std::string t_query_id;
thread_local char t_query_id_c[64] = {0};

void sync_query_id_cstr() noexcept {
  const std::size_t n =
      std::min(t_query_id.size(), sizeof t_query_id_c - 1);
  std::memcpy(t_query_id_c, t_query_id.data(), n);
  t_query_id_c[n] = '\0';
}

std::atomic<std::uint64_t> g_query_seq{0};

}  // namespace

const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

void set_log_level(LogLevel level) {
  detail::g_log_level.store(static_cast<int>(level),
                            std::memory_order_relaxed);
}

void set_log_file(const std::string& path) {
  if (path.empty()) {
    install_log_fd(STDERR_FILENO, "");
    return;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    throw std::runtime_error("obs: cannot open log file: " + path);
  }
  install_log_fd(fd, path);
}

const std::string& log_file_path() {
  LogRegistry& reg = log_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.path;
}

bool init_log_from_env() {
  const char* level = std::getenv("PERFORMA_LOG_LEVEL");
  if (level != nullptr && level[0] != '\0') {
    const std::string name = level;
    if (name == "debug") {
      set_log_level(LogLevel::kDebug);
    } else if (name == "info") {
      set_log_level(LogLevel::kInfo);
    } else if (name == "warn") {
      set_log_level(LogLevel::kWarn);
    } else if (name == "error") {
      set_log_level(LogLevel::kError);
    }
  }
  {
    LogRegistry& reg = log_registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (reg.fd != STDERR_FILENO) return true;  // already configured
  }
  const char* path = std::getenv("PERFORMA_LOG");
  if (path == nullptr || path[0] == '\0' ||
      std::strcmp(path, "stderr") == 0) {
    return false;
  }
  set_log_file(path);
  return true;
}

void reset_log_for_test() {
  install_log_fd(STDERR_FILENO, "");
  detail::g_log_level.store(static_cast<int>(LogLevel::kInfo),
                            std::memory_order_relaxed);
}

namespace detail {

void append_log_lines(const std::string& lines) {
  LogRegistry& reg = log_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  write_all_fd(reg.fd, lines.data(), lines.size());
}

}  // namespace detail

bool LogSite::admit() noexcept {
  const std::int64_t now = monotonic_ns();
  std::int64_t last = last_refill_ns.load(std::memory_order_relaxed);
  if (last == 0) {
    // First use: stamp the clock; the bucket starts full.
    last_refill_ns.compare_exchange_strong(last, now,
                                           std::memory_order_relaxed);
  } else if (now > last &&
             last_refill_ns.compare_exchange_strong(
                 last, now, std::memory_order_relaxed)) {
    // This thread won the refill interval [last, now).
    const std::int64_t refill_milli =
        (now - last) * kRefillPerSec / 1000000;  // ns -> milli-tokens
    if (refill_milli > 0) {
      std::int64_t cur = tokens_milli.load(std::memory_order_relaxed);
      std::int64_t next;
      do {
        next = std::min(cur + refill_milli, kBurst * 1000);
      } while (!tokens_milli.compare_exchange_weak(
          cur, next, std::memory_order_relaxed));
    }
  }
  if (tokens_milli.fetch_sub(1000, std::memory_order_relaxed) - 1000 < 0) {
    tokens_milli.fetch_add(1000, std::memory_order_relaxed);
    suppressed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

LogLine::LogLine(LogLevel level, const char* event, LogSite* site) {
  buf_.reserve(256);
  char head[96];
  std::snprintf(head, sizeof head, "{\"ts\":%.6f,\"level\":\"%s\"",
                realtime_seconds(), log_level_name(level));
  buf_ += head;
  buf_ += ",\"event\":\"";
  append_json_escaped(buf_, event);
  buf_ += '"';
  std::snprintf(head, sizeof head, ",\"pid\":%d,\"tid\":%llu",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(thread_id()));
  buf_ += head;
  const std::string& qid = current_query_id();
  if (!qid.empty()) append_json_kv(buf_, "qid", qid);
  if (site != nullptr) {
    const std::uint64_t suppressed = site->take_suppressed();
    if (suppressed > 0) {
      std::snprintf(head, sizeof head, ",\"suppressed\":%llu",
                    static_cast<unsigned long long>(suppressed));
      buf_ += head;
    }
  }
  header_len_ = buf_.size();
}

LogLine::~LogLine() {
  buf_ += '}';
  if (flight_enabled()) {
    // A flight slot holds 255 payload bytes. A byte-truncated line
    // would fail the reader's parse-or-skip contract and vanish from
    // the black box, so an oversized line falls back to its header
    // fields (ts/level/event/pid/tid/qid) plus a truncation marker --
    // still joinable by qid, still valid JSON.
    if (buf_.size() < kFlightSlotBytes) {
      flight_record(buf_.data(), buf_.size());
    } else {
      std::string compact = buf_.substr(0, header_len_);
      compact += ",\"trunc\":true}";
      flight_record(compact.data(), compact.size());
    }
  }
  buf_ += '\n';
  LogRegistry& reg = log_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  write_all_fd(reg.fd, buf_.data(), buf_.size());
}

LogLine& LogLine::kv(const char* key, const std::string& value) {
  append_json_kv(buf_, key, value);
  return *this;
}

LogLine& LogLine::kv(const char* key, const char* value) {
  return kv(key, std::string(value));
}

LogLine& LogLine::kv(const char* key, double value) {
  append_json_kv(buf_, key, value);
  return *this;
}

LogLine& LogLine::kv(const char* key, std::uint64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"%s\":%llu", key,
                static_cast<unsigned long long>(value));
  buf_ += buf;
  return *this;
}

LogLine& LogLine::kv(const char* key, std::int64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"%s\":%lld", key,
                static_cast<long long>(value));
  buf_ += buf;
  return *this;
}

LogLine& LogLine::kv(const char* key, bool value) {
  buf_ += ",\"";
  buf_ += key;
  buf_ += value ? "\":true" : "\":false";
  return *this;
}

std::string mint_query_id() {
  char buf[48];
  std::snprintf(buf, sizeof buf, "q-%d-%llu", static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    g_query_seq.fetch_add(1, std::memory_order_relaxed) + 1));
  return buf;
}

const std::string& current_query_id() noexcept { return t_query_id; }

const char* current_query_id_cstr() noexcept { return t_query_id_c; }

QueryIdScope::QueryIdScope(std::string qid) : prev_(std::move(t_query_id)) {
  t_query_id = std::move(qid);
  sync_query_id_cstr();
}

QueryIdScope::~QueryIdScope() {
  t_query_id = std::move(prev_);
  sync_query_id_cstr();
}

}  // namespace performa::obs
