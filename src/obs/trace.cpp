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
  void write_raw(const std::string& json_line) override {
    raw_lines_.push_back(json_line);
  }
  std::vector<TraceEvent> drain_events() { return std::move(events_); }
  std::vector<std::string> drain_raw() { return std::move(raw_lines_); }

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::string> raw_lines_;
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

// A structurally complete record line: one `{...}` object, optionally
// comma-terminated. Anything else (the `[` header, a torn tail from a
// SIGKILLed writer) is not mergeable.
bool is_complete_record(const std::string& line) {
  if (line.empty() || line.front() != '{') return false;
  std::size_t end = line.size();
  if (line.back() == ',') --end;
  return end >= 2 && line[end - 1] == '}';
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

std::vector<std::string> drain_memory_raw_lines() {
  flush_trace();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.memory == nullptr) return {};
  return reg.memory->drain_raw();
}

void reopen_trace_in_child(const std::string& fragment_path) {
  // Inherited buffered spans belong to the parent: drop them without
  // flushing. The parent's FileSink fflushes after every batch, so no
  // serialized bytes are duplicated either; destroying the inherited
  // sink below closes the child's copy of the fd with an empty stdio
  // buffer.
  thread_buffer().events.clear();
  install_sink(std::make_unique<FileSink>(fragment_path), nullptr,
               fragment_path);
}

std::vector<std::string> take_fragment_lines(const std::string& fragment_path) {
  std::vector<std::string> lines;
  std::FILE* in = std::fopen(fragment_path.c_str(), "r");
  if (in == nullptr) return lines;  // worker died before its first flush
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) content.append(buf, n);
  std::fclose(in);
  ::unlink(fragment_path.c_str());
  for (std::size_t start = 0, nl;
       (nl = content.find('\n', start)) != std::string::npos; start = nl + 1) {
    lines.push_back(content.substr(start, nl - start));
  }
  return lines;
}

std::size_t merge_trace_fragment(const std::string& fragment_path) {
  std::vector<std::string> lines = take_fragment_lines(fragment_path);
  std::size_t merged = 0;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (std::string& line : lines) {
    if (!is_complete_record(line)) continue;  // the `[` header
    if (line.back() != ',') line += ',';
    if (reg.sink != nullptr) {
      reg.sink->write_raw(line);
      ++merged;
    }
  }
  if (reg.sink != nullptr && merged > 0) reg.sink->flush();
  return merged;
}

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
