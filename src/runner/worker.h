// Isolated execution of experiment points.
//
// Each point runs in a forked worker subprocess: a hang is contained by
// a wall-clock timeout (the worker is SIGKILLed), a crash (segfault,
// abort, OOM kill) takes down only the worker, and deterministic model
// failures travel back as dedicated exit codes. Results cross the
// parent/worker pipe as `metric <name> <hexfloat>` lines terminated by
// an `ok` sentinel, so a torn write (worker died mid-result) is
// detectable and classified as a crash rather than parsed as truth.
//
// spawn_worker / drain_worker / reap_worker are non-blocking handle
// primitives. The read end of the result pipe is O_NONBLOCK, so one
// supervisor can multiplex many live workers with a single poll(2) --
// this is what the sweep scheduler (sweep.h) builds on.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runner/outcome.h"

namespace performa::runner {

/// What one experiment point computes: named metric values in emission
/// order.
struct PointResult {
  std::vector<std::pair<std::string, double>> metrics;
};

/// Computes one point. Runs inside the forked worker, so it must not
/// depend on being able to mutate parent state.
using PointFn = std::function<PointResult()>;

/// One execution attempt, classified.
struct WorkerReport {
  Outcome outcome = Outcome::kCrash;
  PointResult result;      ///< meaningful only when outcome == kOk
  std::string message;     ///< diagnostics (exception text, signal, ...)
  double elapsed_seconds = 0.0;
};

/// A live worker subprocess. The supervisor owns the (non-blocking)
/// read end of the result pipe; the worker owns the write end, so EOF
/// on `fd` means the worker exited (or was killed) and can be reaped.
struct WorkerHandle {
  pid_t pid = -1;
  int fd = -1;             ///< O_NONBLOCK read end of the result pipe
  std::string payload;     ///< bytes drained from the pipe so far
  bool eof = false;        ///< worker closed its end (exit or kill)
  std::chrono::steady_clock::time_point started{};

  bool running() const noexcept { return pid > 0; }
};

/// Fork a worker for `fn`, one of `concurrent` workers the supervisor
/// keeps in flight: the worker's default pool width is its share of the
/// machine (linalg::set_pool_share). Throws NumericalError when
/// fork/pipe fail (supervisor-side resource exhaustion); worker
/// misbehaviour after a successful spawn never throws -- it is
/// classified by reap_worker.
WorkerHandle spawn_worker(const PointFn& fn, unsigned concurrent);

/// Drain every byte currently available on the worker's pipe into
/// `payload` without blocking; sets `eof` once the worker closed its
/// end. Call after poll(2) reports the fd readable.
void drain_worker(WorkerHandle& worker);

/// SIGKILL the worker (idempotent; reap_worker still must run).
void kill_worker(const WorkerHandle& worker) noexcept;

/// Close the pipe, wait for the worker, and classify the attempt.
/// `timed_out` marks a supervisor-initiated SIGKILL at the wall-clock
/// deadline `timeout_seconds` (reported as kTimeout rather than kCrash).
/// Invalidates the handle.
WorkerReport reap_worker(WorkerHandle& worker, bool timed_out,
                         double timeout_seconds);

// Result-payload codec shared with the worker child, exposed for tests.
std::string encode_result(const PointResult& result);
bool decode_result(const std::string& payload, PointResult& out);

}  // namespace performa::runner
