// The trace-sink internals the fork handoff (fork.h) needs, defined
// beside the sink's private state. Private to src/obs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace performa::obs::detail {

/// Drop the calling thread's buffered spans unflushed and trace to a
/// file sink at `path`, or not at all when it cannot be opened.
void enter_trace_fragment(const std::string& path) noexcept;

/// Append `{...},` record lines to the trace sink; returns how many.
std::size_t append_trace_records(const std::vector<std::string>& records);

}  // namespace performa::obs::detail
