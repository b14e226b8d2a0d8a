#include "obs/trace.h"

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/append_file.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace performa::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

namespace {

double monotonic_us() noexcept {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

double thread_cpu_us() noexcept {
  struct timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

std::uint64_t thread_id() noexcept {
  return static_cast<std::uint64_t>(::syscall(SYS_gettid));
}

void append_escaped(std::string& out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string serialize(const TraceEvent& ev) {
  std::string line = "{\"name\":\"";
  append_escaped(line, ev.name);
  line += "\",\"cat\":\"performa\",\"ph\":\"X\"";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%llu",
                ev.ts_us, ev.dur_us, ev.pid,
                static_cast<unsigned long long>(ev.tid));
  line += buf;
  line += ",\"args\":{";
  std::snprintf(buf, sizeof buf, "\"cpu_us\":%.3f", ev.cpu_us);
  line += buf;
  line += ev.args;  // pre-rendered `,"key":value` fragments
  line += "}},";
  return line;
}

/// Where trace records go. The flusher calls it under the registry
/// lock, one flushed batch at a time.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Record one batch of completed spans; never throws.
  virtual void write(const std::vector<TraceEvent>& batch) = 0;
};

/// File sink: Chrome trace_event JSON array, one record per line. Each
/// batch is serialized into one string and appended with one write(2),
/// so a SIGKILL never tears a record, and forked workers writing through
/// the inherited fd never split one another's lines.
class FileSink final : public TraceSink {
 public:
  explicit FileSink(const std::string& path)
      : file_(path, "[", /*truncate=*/true) {}
  void write(const std::vector<TraceEvent>& batch) override {
    std::string out;
    for (const TraceEvent& event : batch) {
      out += serialize(event);
      out += '\n';
    }
    try {
      file_.append(out);
    } catch (const std::exception&) {
      // A trace that cannot be written must not fail the traced work.
      static Counter& errors = counter("obs.trace.write_errors");
      errors.add(1);
    }
  }

 private:
  AppendFile file_;
};

class MemorySink final : public TraceSink {
 public:
  void write(const std::vector<TraceEvent>& batch) override {
    events_.insert(events_.end(), batch.begin(), batch.end());
  }
  std::vector<TraceEvent> drain_events() { return std::move(events_); }

 private:
  std::vector<TraceEvent> events_;
};

// Sink registry. The mutex guards the sink pointer and every write
// through it; span hot paths never take it (they only append to the
// thread-local buffer).
struct Registry {
  std::mutex mutex;
  std::unique_ptr<TraceSink> sink;
  MemorySink* memory = nullptr;  ///< non-null when sink is the memory sink
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during shutdown
  return *r;
}

constexpr std::size_t kFlushThreshold = 512;

// Thread-local span buffer, flushed into the sink on overflow and when
// the thread ends.
struct ThreadBuffer {
  std::vector<TraceEvent> events;
  ~ThreadBuffer() { flush(); }
  void flush() {
    if (events.empty()) return;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (reg.sink != nullptr) reg.sink->write(events);
    events.clear();
  }
};

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

void install_sink(std::unique_ptr<TraceSink> sink, MemorySink* memory) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.sink = std::move(sink);
  reg.memory = memory;
  detail::g_trace_on.store(reg.sink != nullptr, std::memory_order_relaxed);
}

}  // namespace

void enable_trace_file(const std::string& path) {
  install_sink(std::make_unique<FileSink>(path), nullptr);
}

void enable_trace_memory() {
  auto sink = std::make_unique<MemorySink>();
  MemorySink* memory = sink.get();
  install_sink(std::move(sink), memory);
}

void disable_trace() {
  flush_trace();
  install_sink(nullptr, nullptr);
}

void flush_trace() {
  thread_buffer().flush();
}

std::vector<TraceEvent> drain_memory_trace() {
  flush_trace();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.memory == nullptr) return {};
  return reg.memory->drain_events();
}

namespace detail {

void discard_thread_spans() noexcept { thread_buffer().events.clear(); }

}  // namespace detail

bool init_trace_from_env() {
  if (trace_enabled()) return true;
  const char* path = std::getenv("PERFORMA_TRACE");
  if (path == nullptr || path[0] == '\0') return false;
  enable_trace_file(path);
  return true;
}

void Span::start(const char* name) noexcept {
  armed_ = true;
  name_ = name;
  ts_us_ = monotonic_us();
  cpu0_us_ = thread_cpu_us();
}

void Span::finish() noexcept {
  armed_ = false;
  // A sink swap between start and finish is benign: the record lands in
  // the thread buffer and the next flush routes it to whatever sink is
  // installed then (or drops it when tracing was disabled).
  TraceEvent ev;
  ev.name = name_;
  ev.ts_us = ts_us_;
  ev.dur_us = monotonic_us() - ts_us_;
  ev.cpu_us = thread_cpu_us() - cpu0_us_;
  ev.pid = static_cast<int>(::getpid());
  ev.tid = thread_id();
  ev.args = std::move(args_);
  // Spans produced while a query id is in scope carry it, joining the
  // trace against log lines, wire replies and flight dumps.
  const std::string& qid = current_query_id();
  if (!qid.empty()) append_json_kv(ev.args, "qid", qid);
  // The flight ring sees completed spans immediately (the thread
  // buffer may never flush before a crash).
  if (flight_enabled()) {
    const std::string line = serialize(ev);
    flight_record(line.data(), line.size() - 1);  // minus trailing comma
  }
  ThreadBuffer& buffer = thread_buffer();
  buffer.events.push_back(std::move(ev));
  if (buffer.events.size() >= kFlushThreshold) buffer.flush();
}

void Span::annotate(const char* key, const std::string& value) {
  if (!armed_) return;
  append_json_kv(args_, key, value);
}

void Span::annotate(const char* key, double value) {
  if (!armed_) return;
  append_json_kv(args_, key, value);
}

void Span::annotate(const char* key, std::uint64_t value) {
  if (!armed_) return;
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"%s\":%llu", key,
                static_cast<unsigned long long>(value));
  args_ += buf;
}

double Span::elapsed_seconds() const noexcept {
  return armed_ ? (monotonic_us() - ts_us_) * 1e-6 : 0.0;
}

void append_json_kv(std::string& out, const char* key,
                    const std::string& value) {
  out += ",\"";
  out += key;
  out += "\":\"";
  append_escaped(out, value);
  out += '"';
}

void append_json_kv(std::string& out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"%s\":%.6g", key, value);
  out += buf;
}

void append_json_escaped(std::string& out, const std::string& value) {
  append_escaped(out, value);
}

}  // namespace performa::obs
