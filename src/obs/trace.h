// Zero-dependency tracing: RAII scoped spans recording wall and CPU
// time, buffered thread-locally and flushed to a file or memory sink as
// Chrome trace_event-compatible complete-duration (`ph:"X"`) records.
// A trace file written by the JSONL sink opens directly in
// about://tracing and Perfetto.
//
// Cost model: when no sink is installed (the default), PERFORMA_SPAN
// compiles to a constructor that reads one relaxed atomic and returns
// -- hot loops pay a single predictable branch. When tracing is
// enabled, span start/finish reads two clocks and appends to a
// thread-local buffer; serialization happens at flush granularity, off
// the instrumented path.
//
// Fork boundary: the file sink appends each flushed batch with one
// write(2) (append_file.h), so a forked worker keeps writing to the
// inherited fd and its records land whole in the parent's trace, under
// the worker's pid: a sweep trace shows one timeline per process.
// obs::ForkHandoff (fork.h) drops the spans a worker inherits buffered.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace performa::obs {

namespace detail {
extern std::atomic<bool> g_trace_on;

/// Drop the calling thread's buffered spans unflushed: a forked child's
/// copy of spans its parent will flush itself (fork.h).
void discard_thread_spans() noexcept;
}  // namespace detail

/// True when a sink is installed and spans record; spans constructed
/// while disabled are inert for their whole lifetime.
inline bool trace_enabled() noexcept {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// One completed span. `name` must be a string with static storage
/// duration (the macro passes literals); `args` is a pre-rendered JSON
/// fragment of extra key/values (possibly empty).
struct TraceEvent {
  const char* name = "";
  double ts_us = 0.0;   ///< CLOCK_MONOTONIC microseconds at span start
  double dur_us = 0.0;  ///< wall-clock duration
  double cpu_us = 0.0;  ///< thread CPU time consumed inside the span
  int pid = 0;
  std::uint64_t tid = 0;
  std::string args;     ///< extra JSON: `,"key":"value"` fragments
};

/// Route spans to `path` as a Chrome trace_event JSON array, one record
/// per line (`[` first, then `{...},` lines; the closing bracket is
/// optional per the trace_event spec, so a killed process still leaves
/// a loadable trace). Throws std::runtime_error when the file cannot
/// be opened. Replaces any previously installed sink.
void enable_trace_file(const std::string& path);

/// Route spans to an in-memory buffer (tests).
void enable_trace_memory();

/// Flush and drop the sink; spans become no-ops again.
void disable_trace();

/// Drain the calling thread's span buffer into the sink and flush it.
void flush_trace();

/// Flush, then move the memory sink's accumulated events out (tests).
/// Returns an empty vector when the sink is not the memory sink.
std::vector<TraceEvent> drain_memory_trace();

/// Install a file sink from $PERFORMA_TRACE when set and tracing is not
/// already configured. Returns true when tracing is (now) enabled.
bool init_trace_from_env();

/// RAII scoped span. Construction snapshots wall + CPU clocks;
/// destruction records a complete `ph:"X"` event into the thread-local
/// buffer. Inert (one branch) when tracing is disabled. Unwinding
/// destroys spans innermost-first, so nesting balances under
/// exceptions by construction.
class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (trace_enabled()) start(name);
  }
  ~Span() {
    if (armed_) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach an extra key to the record (JSON-escaped). No-ops on an
  /// inert span.
  void annotate(const char* key, const std::string& value);
  void annotate(const char* key, double value);
  void annotate(const char* key, std::uint64_t value);

  /// Wall-clock seconds since construction; 0.0 on an inert span.
  double elapsed_seconds() const noexcept;

 private:
  void start(const char* name) noexcept;
  void finish() noexcept;

  bool armed_ = false;
  const char* name_ = "";
  double ts_us_ = 0.0;
  double cpu0_us_ = 0.0;
  std::string args_;
};

#define PERFORMA_OBS_CONCAT_(a, b) a##b
#define PERFORMA_OBS_CONCAT(a, b) PERFORMA_OBS_CONCAT_(a, b)
/// Scoped span covering the rest of the enclosing block.
#define PERFORMA_SPAN(name) \
  ::performa::obs::Span PERFORMA_OBS_CONCAT(performa_obs_span_, \
                                            __LINE__)(name)

/// Append `,"key":"escaped value"` to a JSON fragment string (shared
/// with the metrics serializer; exposed for tests).
void append_json_kv(std::string& out, const char* key,
                    const std::string& value);
void append_json_kv(std::string& out, const char* key, double value);

/// Append `value` JSON-string-escaped (no surrounding quotes); shared
/// with the structured-log serializer.
void append_json_escaped(std::string& out, const std::string& value);

}  // namespace performa::obs
