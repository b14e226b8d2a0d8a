#include "obs/fork.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "obs/flight.h"
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

// Read a trace fragment, unlink it, and return its newline-terminated
// records (newline stripped). A torn final line has no newline, so it is
// never returned. A missing fragment yields nothing.
std::vector<std::string> take_records(const std::string& path) {
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
    if (is_trace_record(line)) records.push_back(std::move(line));
  }
  return records;
}

}  // namespace

ForkHandoff ForkHandoff::prepare() {
  ForkHandoff handoff;
  // A memory trace sink has no path a child could hand back.
  if (trace_enabled() && !trace_file_path().empty()) {
    handoff.trace_fragment_ = trace_file_path() + ".frag." +
                              std::to_string(g_fragment_seq.fetch_add(1));
  }
  return handoff;
}

void ForkHandoff::enter_child() const noexcept {
  if (!trace_fragment_.empty()) detail::enter_trace_fragment(trace_fragment_);
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
  if (trace_fragment_.empty()) return 0;
  std::vector<std::string> records = take_records(trace_fragment_);
  for (std::string& record : records) {
    if (record.back() != ',') record += ',';
  }
  trace_fragment_.clear();
  return detail::append_trace_records(records);
}

}  // namespace performa::obs
