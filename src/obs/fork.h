// Telemetry across fork(2): the one handoff a forked worker makes. The
// trace and log files need no private copy: both are AppendFiles
// (append_file.h), so a worker keeps the inherited fd and each of its
// batches lands whole, under the worker's pid, beside the parent's. The
// handoff only keeps the worker off state that is its parent's: the
// spans still buffered on the forking thread, and the flight ring. A
// clean worker exit removes the worker's flight file; a crashed worker
// keeps it as evidence. The handoff takes no lock but the trace
// registry's, to flush its own spans. With no sink configured every
// step is a few relaxed loads, and no file is touched.
#pragma once

namespace performa::obs {

class ForkHandoff {
 public:
  /// Child, right after fork(): drop the inherited span buffer unflushed
  /// (the parent flushes those spans itself) and move the flight
  /// recorder to the child's pid.
  static void enter_child() noexcept;

  /// Child, before _exit(): _exit runs no destructors, so the child's
  /// spans are flushed here and its flight file is closed.
  static void leave_child() noexcept;
};

}  // namespace performa::obs
