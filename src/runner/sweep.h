// Supervised sweep execution: the resilience layer between "a list of
// experiment points" and "a list of results".
//
// Points run in isolated forked workers (see worker.h) under a
// wall-clock timeout, up to `jobs` of them in flight at once. Each live
// point is owned by a scheduler *slot* that walks a small state machine
// (running -> backing-off -> running ... -> done): transient failures
// (timeout, crash) are retried with capped, jittered exponential
// backoff; deterministic failures (solver failure, unstable model) are
// recorded once as degraded placeholder points and the sweep
// *continues*. Results are delivered in request order regardless of
// completion order -- a `-j 8` sweep produces the same point list,
// bit-exactly, as a `-j 1` sweep of the same specs.
//
// Completed points are appended to a checksummed checkpoint file as
// they finish (completion order; the v2 checkpoint format is keyed by
// point id, so resume is order-independent). A killed sweep restarted
// with resume=true re-reads the checkpoint, reuses every completed
// point bit-exactly (metrics are persisted as hex-floats) and only
// re-executes what is missing. SIGINT/SIGTERM wind the sweep down:
// nothing new is dispatched, in-flight workers get a bounded grace
// period to finish (and are recorded if they do), then are SIGKILLed --
// the checkpoint is already flushed point-by-point, so the final state
// is always on disk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/checkpoint.h"
#include "runner/retry.h"
#include "runner/worker.h"

namespace performa::runner {

/// One point of a sweep: a stable identifier plus the computation.
struct SweepPointSpec {
  std::string id;
  PointFn fn;
};

struct SweepOptions {
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Reuse completed points from the checkpoint instead of re-running
  /// them. Points previously recorded as degraded are retried (they get
  /// a fresh chance); ok points are trusted bit-exactly.
  bool resume = false;
  /// fsync every checkpoint append (see append_point): survives
  /// power-loss-style kills, costs a disk round-trip per point. Off by
  /// default -- sweeps favour throughput; the daemon's journal, which
  /// *is* the recovery story, defaults the equivalent flag on.
  bool sync_checkpoint = false;
  /// Per-attempt wall-clock budget for one point; 0 = unlimited.
  double timeout_seconds = 0.0;
  RetryPolicy retry;
  /// Maximum points in flight at once. 1 = sequential (the scheduling
  /// and output of the pre-parallel runner, byte for byte); 0 = one per
  /// hardware thread.
  unsigned jobs = 1;
  /// One compact stderr line per *completed* point (id, outcome,
  /// attempts, seconds), in completion order: long parallel sweeps stay
  /// observable without tailing the checkpoint.
  bool progress = false;
};

/// What a sweep produced: one record per requested point, in request
/// order -- unless the sweep was interrupted, in which case the points
/// list holds the longest completed prefix (later points that finished
/// out of order are still in the checkpoint for resume).
struct SweepResult {
  std::vector<CheckpointPoint> points;
  std::size_t reused = 0;      ///< points restored from the checkpoint
  std::size_t degraded = 0;    ///< points recorded with outcome != ok
  bool interrupted = false;    ///< SIGINT/SIGTERM stopped the sweep early
};

/// Resolve a jobs request: 0 maps to the hardware thread count (at
/// least 1), anything else passes through.
unsigned resolve_jobs(unsigned jobs) noexcept;

/// Install SIGINT/SIGTERM/SIGHUP handlers that raise the sweep interrupt
/// flag (idempotent). The sweep then winds down (no new dispatches,
/// bounded drain) with the checkpoint fully flushed; a second signal
/// falls back to the default disposition, so a stuck sweep can still be
/// killed hard.
void install_signal_handlers();

/// True once SIGINT/SIGTERM/SIGHUP was received.
bool sweep_interrupted() noexcept;

/// Clear the interrupt flag programmatically (tests, embedders).
void clear_interrupt() noexcept;

/// Execute a sweep under supervision. `name` identifies the sweep in
/// checkpoint headers (resuming into a checkpoint of a different sweep
/// throws). Throws InvalidArgument on inconsistent options; worker
/// misbehaviour never throws.
SweepResult run_sweep(const std::string& name,
                      const std::vector<SweepPointSpec>& points,
                      const SweepOptions& options);

}  // namespace performa::runner
