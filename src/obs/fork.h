// Telemetry across fork(2): the one handoff that keeps a forked worker
// off its parent's trace and flight sinks (the trace sink buffers spans,
// so two processes on one file would interleave partial lines).
// prepare() composes a private trace fragment path `<sink path>.frag.<seq>`
// in the parent before fork(); the child enters it and leaves before
// _exit(); the parent absorbs it once the worker is reaped. A clean
// worker exit removes the worker's flight file; a crashed worker keeps it
// as evidence. The log sink needs no handoff: its lines are single
// O_APPEND writes to the inherited fd (log.h). With no sink configured
// every step is a few relaxed loads and one lock: no path is built and
// no file is touched.
#pragma once

#include <cstddef>
#include <string>

namespace performa::obs {

class ForkHandoff {
 public:
  /// Parent, before fork(): the fragment path for an installed trace file.
  static ForkHandoff prepare();

  /// Child, right after fork(). A fragment that cannot be opened leaves
  /// the trace off; the point still runs.
  void enter_child() const noexcept;

  /// Child, before _exit(): _exit runs no destructors, so the trace
  /// fragment is flushed here.
  static void leave_child() noexcept;

  /// Parent, after the worker is reaped: merge and unlink the fragment.
  /// Returns the number of records merged. A fragment the worker never
  /// wrote (killed before its first flush) merges nothing.
  std::size_t absorb();

 private:
  std::string trace_fragment_;
};

}  // namespace performa::obs
