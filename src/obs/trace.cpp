#include "obs/trace.h"

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/sink_hooks.h"

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

/// File sink: Chrome trace_event JSON array, one record per line. Every
/// batch ends in fflush so (a) a SIGKILL loses at most the last line
/// and (b) a fork never duplicates buffered stdio bytes into a child.
class FileSink final : public TraceSink {
 public:
  explicit FileSink(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")) {
    if (file_ == nullptr) {
      throw std::runtime_error("obs: cannot open trace file: " + path);
    }
    std::fputs("[\n", file_);
    std::fflush(file_);
  }
  ~FileSink() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  void write(const TraceEvent& event) override {
    const std::string line = serialize(event);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
  }
  void write_raw(const std::string& json_line) override {
    std::fwrite(json_line.data(), 1, json_line.size(), file_);
    std::fputc('\n', file_);
  }
  void flush() override { std::fflush(file_); }

 private:
  std::FILE* file_;
};

class MemorySink final : public TraceSink {
 public:
  void write(const TraceEvent& event) override { events_.push_back(event); }
  // Fork fragments merge only into a file sink (see fork.h).
  void write_raw(const std::string&) override {}
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
  std::string file_path;
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
    if (reg.sink != nullptr) {
      for (const TraceEvent& ev : events) reg.sink->write(ev);
      reg.sink->flush();
    }
    events.clear();
  }
};

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

void install_sink(std::unique_ptr<TraceSink> sink, MemorySink* memory,
                  std::string path) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.sink = std::move(sink);
  reg.memory = memory;
  reg.file_path = std::move(path);
  detail::g_trace_on.store(reg.sink != nullptr, std::memory_order_relaxed);
}

}  // namespace

void enable_trace_file(const std::string& path) {
  install_sink(std::make_unique<FileSink>(path), nullptr, path);
}

void enable_trace_memory() {
  auto sink = std::make_unique<MemorySink>();
  MemorySink* memory = sink.get();
  install_sink(std::move(sink), memory, "");
}

void disable_trace() {
  flush_trace();
  install_sink(nullptr, nullptr, "");
}

void flush_trace() {
  thread_buffer().flush();
}

const std::string& trace_file_path() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.file_path;
}

std::vector<TraceEvent> drain_memory_trace() {
  flush_trace();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.memory == nullptr) return {};
  return reg.memory->drain_events();
}

namespace detail {

void enter_trace_fragment(const std::string& path) noexcept {
  // Inherited buffered spans belong to the parent: drop them without
  // flushing. The parent's FileSink fflushes after every batch, so no
  // serialized bytes are duplicated either; replacing the inherited sink
  // closes the child's copy of the fd with an empty stdio buffer.
  thread_buffer().events.clear();
  try {
    install_sink(std::make_unique<FileSink>(path), nullptr, path);
  } catch (...) {
    install_sink(nullptr, nullptr, "");  // cannot open it: run untraced
  }
}

std::size_t append_trace_records(const std::vector<std::string>& records) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.sink == nullptr || records.empty()) return 0;
  for (const std::string& record : records) reg.sink->write_raw(record);
  reg.sink->flush();
  return records.size();
}

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
