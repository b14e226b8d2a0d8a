#include "obs/fork.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/sink_hooks.h"
#include "obs/trace.h"

namespace performa::obs {

namespace {

std::atomic<std::uint64_t> g_fragment_seq{0};

// A trace record: one `{...}` object, optionally comma-terminated. The
// `[` header line is not one.
bool is_trace_record(const std::string& line) {
  if (line.empty() || line.front() != '{') return false;
  std::size_t end = line.size();
  if (line.back() == ',') --end;
  return end >= 2 && line[end - 1] == '}';
}

// A log record: one `{...}` NDJSON object.
bool is_log_record(const std::string& line) {
  return line.size() >= 2 && line.front() == '{' && line.back() == '}';
}

// Read a fragment, unlink it, and return the newline-terminated lines
// (newline stripped) that `is_record` accepts. A torn final line has no
// newline, so it is never returned. A missing fragment yields nothing.
std::vector<std::string> take_records(const std::string& path,
                                      bool (*is_record)(const std::string&)) {
  std::vector<std::string> records;
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return records;
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) content.append(buf, n);
  std::fclose(in);
  ::unlink(path.c_str());
  for (std::size_t start = 0, nl;
       (nl = content.find('\n', start)) != std::string::npos; start = nl + 1) {
    std::string line = content.substr(start, nl - start);
    if (is_record(line)) records.push_back(std::move(line));
  }
  return records;
}

}  // namespace

ForkHandoff ForkHandoff::prepare() {
  ForkHandoff handoff;
  // A memory trace sink has no path a child could hand back.
  const bool trace_file = trace_enabled() && !trace_file_path().empty();
  const std::string& log_path = log_file_path();
  if (!trace_file && log_path.empty()) return handoff;
  const std::string suffix =
      ".frag." + std::to_string(g_fragment_seq.fetch_add(1));
  if (trace_file) handoff.trace_fragment_ = trace_file_path() + suffix;
  if (!log_path.empty()) handoff.log_fragment_ = log_path + suffix;
  return handoff;
}

void ForkHandoff::enter_child() const noexcept {
  if (!trace_fragment_.empty()) detail::enter_trace_fragment(trace_fragment_);
  if (!log_fragment_.empty()) {
    // Closes the child's copy of the parent's fd. Lines are unbuffered,
    // so no parent bytes are duplicated. A fragment left by an earlier
    // run must not be appended to.
    ::unlink(log_fragment_.c_str());
    try {
      set_log_file(log_fragment_);
    } catch (...) {
      set_log_file("");  // cannot open it: log to stderr
    }
  }
  if (flight_enabled()) {
    // The parent's file stays; the child records under its own pid.
    const std::string path = flight_path();
    disable_flight(/*keep_file=*/true);
    init_flight(path.substr(0, path.rfind(".flight.")));
  }
}

void ForkHandoff::leave_child() noexcept {
  if (trace_enabled()) disable_trace();  // flushes and closes the fragment
  if (flight_enabled()) disable_flight(/*keep_file=*/false);
}

std::size_t ForkHandoff::absorb() {
  std::size_t merged = 0;
  if (!trace_fragment_.empty()) {
    std::vector<std::string> records =
        take_records(trace_fragment_, is_trace_record);
    for (std::string& record : records) {
      if (record.back() != ',') record += ',';
    }
    merged += detail::append_trace_records(records);
    trace_fragment_.clear();
  }
  if (!log_fragment_.empty()) {
    const std::vector<std::string> records =
        take_records(log_fragment_, is_log_record);
    std::string lines;
    for (const std::string& record : records) {
      lines += record;
      lines += '\n';
    }
    detail::append_log_lines(lines);
    merged += records.size();
    log_fragment_.clear();
  }
  return merged;
}

}  // namespace performa::obs
