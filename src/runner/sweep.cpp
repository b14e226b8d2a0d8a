#include "runner/sweep.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "linalg/errors.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/random.h"

namespace performa::runner {

namespace {

using Clock = std::chrono::steady_clock;

// Wind-down grace period: after SIGINT/SIGTERM, in-flight workers may run
// this many more seconds (their results are still recorded) before being
// SIGKILLed.
constexpr double kDrainGraceSeconds = 5.0;
// Seed for the deterministic retry-backoff jitter.
constexpr std::uint64_t kBackoffSeed = 0x9e3779b9ULL;

std::atomic<bool> g_interrupted{false};

void on_signal(int signo) {
  g_interrupted.store(true, std::memory_order_relaxed);
  // Restore the default disposition: the first signal requests a clean
  // wind-down, a second one kills the process the usual way.
  ::signal(signo, SIG_DFL);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One scheduler slot: owns at most one in-flight point and walks it
// through running -> backing-off -> running ... until the point is done
// (delivered ok or recorded degraded), then frees itself for the next
// point in request order.
struct Slot {
  enum class State { kIdle, kRunning, kBackoff };
  State state = State::kIdle;
  std::size_t index = 0;           ///< request index of the owned point
  unsigned attempt = 0;            ///< attempts consumed (1-based)
  WorkerHandle worker;             ///< live worker when kRunning
  bool timed_out = false;          ///< this attempt was SIGKILLed at deadline
  bool has_deadline = false;       ///< kRunning: timeout armed
  Clock::time_point deadline{};    ///< kRunning: timeout; kBackoff: retry at
  Clock::time_point first_dispatch{};
  std::unique_ptr<obs::Span> span;  ///< "runner.point": dispatch -> finalize
};

// Pool instruments, registered once. Counters accumulate over the
// process lifetime (a progress meter subtracts its start-of-sweep
// baseline); gauges describe the current pool state.
struct SweepMetrics {
  obs::Counter& done = obs::counter("runner.points.done");
  obs::Counter& degraded = obs::counter("runner.points.degraded");
  obs::Counter& retries = obs::counter("runner.retries");
  obs::Counter& timeouts = obs::counter("runner.timeouts");
  obs::Gauge& inflight = obs::gauge("runner.points.inflight");
  obs::Gauge& retrying = obs::gauge("runner.points.retrying");
  obs::Gauge& latency_ema = obs::gauge("runner.point.latency_ema");
  obs::Histogram& latency = obs::histogram("runner.point.seconds");
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics m;
  return m;
}

// --progress rendering, driven by the live metrics registry. On a tty
// the status line redraws in place (ANSI carriage-return + erase); when
// stderr is a pipe or file the meter degrades to one plain, newline-
// terminated line per completed point -- no escape codes, no partial
// lines -- so logs and CI transcripts stay clean.
class ProgressMeter {
 public:
  ProgressMeter(const std::string& name, std::size_t total, bool enabled)
      : name_(name),
        total_(total),
        enabled_(enabled),
        tty_(enabled && ::isatty(STDERR_FILENO) == 1),
        done0_(sweep_metrics().done.value()),
        degraded0_(sweep_metrics().degraded.value()),
        retries0_(sweep_metrics().retries.value()) {}

  ~ProgressMeter() {
    if (dirty_) std::fputc('\n', stderr);  // terminate the in-place line
  }

  /// Pool-state pulse: remember the worker counts and, on a tty, redraw.
  void tick(std::size_t running, std::size_t backoff) {
    if (!enabled_) return;
    running_ = running;
    backoff_ = backoff;
    if (tty_) redraw();
  }

  /// A point was finalized (metrics already updated by the caller).
  void point_done(const CheckpointPoint& record, double elapsed) {
    if (!enabled_) return;
    if (tty_) {
      redraw();
      return;
    }
    const SweepMetrics& m = sweep_metrics();
    std::fprintf(stderr,
                 "[sweep %s] done %s: %s attempts=%u %.2fs "
                 "(%llu/%zu done, %llu degraded, %zu running, "
                 "%zu retrying, ema %.2fs)\n",
                 name_.c_str(), record.id.c_str(), to_string(record.outcome),
                 record.attempts, elapsed, delta(m.done.value(), done0_),
                 total_, delta(m.degraded.value(), degraded0_), running_,
                 backoff_, m.latency_ema.value());
  }

 private:
  static unsigned long long delta(std::uint64_t now, std::uint64_t base) {
    return static_cast<unsigned long long>(now - base);
  }

  void redraw() {
    const SweepMetrics& m = sweep_metrics();
    std::fprintf(stderr,
                 "\r\033[K[sweep %s] %llu/%zu done, %llu degraded, "
                 "%zu running, %zu retrying, %llu retries, ema %.2fs",
                 name_.c_str(), delta(m.done.value(), done0_), total_,
                 delta(m.degraded.value(), degraded0_), running_, backoff_,
                 delta(m.retries.value(), retries0_), m.latency_ema.value());
    std::fflush(stderr);
    dirty_ = true;
  }

  std::string name_;
  std::size_t total_;
  bool enabled_;
  bool tty_;
  std::uint64_t done0_, degraded0_, retries0_;
  std::size_t running_ = 0, backoff_ = 0;
  bool dirty_ = false;
};

}  // namespace

unsigned resolve_jobs(unsigned jobs) noexcept {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void install_signal_handlers() {
  struct sigaction sa;
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll/nanosleep must wake up
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  // SIGHUP (lost terminal, daemon manager poking a process group) used
  // to fall through to the default disposition and kill the sweep with
  // the checkpoint mid-flight; treat it exactly like SIGINT/SIGTERM --
  // wind down cleanly. performad claims SIGHUP for config reload and
  // installs its own handler *after* this one.
  ::sigaction(SIGHUP, &sa, nullptr);
}

bool sweep_interrupted() noexcept {
  return g_interrupted.load(std::memory_order_relaxed);
}

void clear_interrupt() noexcept {
  g_interrupted.store(false, std::memory_order_relaxed);
}

SweepResult run_sweep(const std::string& name,
                      const std::vector<SweepPointSpec>& specs,
                      const SweepOptions& options) {
  options.retry.validate();
  PERFORMA_EXPECTS(options.timeout_seconds >= 0.0,
                   "run_sweep: timeout must be >= 0");
  PERFORMA_EXPECTS(!options.resume || !options.checkpoint_path.empty(),
                   "run_sweep: resume needs a checkpoint path");
  {
    std::set<std::string> ids;
    for (const SweepPointSpec& s : specs) {
      PERFORMA_EXPECTS(!s.id.empty() && static_cast<bool>(s.fn),
                       "run_sweep: every point needs an id and a function");
      PERFORMA_EXPECTS(ids.insert(s.id).second,
                       "run_sweep: duplicate point id '" + s.id + "'");
    }
  }

  SweepMetrics& metrics = sweep_metrics();
  obs::Span sweep_span("runner.sweep");
  sweep_span.annotate("name", name);
  sweep_span.annotate("points", static_cast<std::uint64_t>(specs.size()));
  ProgressMeter progress(name, specs.size(), options.progress);

  std::optional<obs::AppendFile> checkpoint;
  SweepCheckpoint prior;
  if (!options.checkpoint_path.empty()) {
    checkpoint = open_checkpoint(options.checkpoint_path, name);
    if (options.resume) {
      prior = load_checkpoint(options.checkpoint_path);
      if (prior.dropped_records > 0) {
        PERFORMA_LOG(kWarn, "sweep.checkpoint_torn")
            .kv("sweep", name)
            .kv("dropped",
                static_cast<std::uint64_t>(prior.dropped_records));
      }
    }
  }

  SweepResult sweep;

  // Request-order delivery: every finished point parks here under its
  // request index, whatever order the workers completed in.
  std::vector<std::optional<CheckpointPoint>> done(specs.size());

  // Resume: trust completed points, give degraded ones a fresh chance.
  if (options.resume) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (const CheckpointPoint* old = prior.find(specs[i].id);
          old != nullptr && old->outcome == Outcome::kOk) {
        done[i] = *old;
        done[i]->index = i;
        ++sweep.reused;
      }
    }
  }

  // Record a finished point: metrics, checkpoint, observability,
  // delivery.
  const auto finalize = [&](CheckpointPoint&& record, double elapsed) {
    if (record.outcome != Outcome::kOk) {
      ++sweep.degraded;
      metrics.degraded.add(1);
    }
    metrics.done.add(1);
    metrics.latency.record(elapsed);
    const double prev_ema = metrics.latency_ema.value();
    metrics.latency_ema.set(prev_ema == 0.0 ? elapsed
                                            : 0.8 * prev_ema + 0.2 * elapsed);
    if (checkpoint) {
      append_point(*checkpoint, record, options.sync_checkpoint);
    }
    progress.point_done(record, elapsed);
    const std::size_t index = record.index;
    done[index] = std::move(record);
  };

  // Worker-pool scheduler: up to `jobs` slots, each owning one point
  // at a time through its retry state machine. One poll(2) multiplexes
  // every live worker plus the earliest timeout/backoff/drain deadline.
  const unsigned jobs = resolve_jobs(options.jobs);
  std::vector<Slot> slots(
      std::max<std::size_t>(1, std::min<std::size_t>(jobs, specs.size())));
  std::size_t next = 0;         // next request index to consider
  std::size_t outstanding = 0;  // points currently owned by a slot
  bool draining = false;
  Clock::time_point drain_deadline{};

  const auto start_attempt = [&](Slot& slot, std::size_t index,
                                 unsigned attempt) {
    slot.state = Slot::State::kRunning;
    slot.index = index;
    slot.attempt = attempt;
    slot.timed_out = false;
    slot.worker = spawn_worker(specs[index].fn,
                               static_cast<unsigned>(slots.size()));
    if (attempt == 1) {
      slot.first_dispatch = slot.worker.started;
      slot.span = std::make_unique<obs::Span>("runner.point");
      slot.span->annotate("id", specs[index].id);
    }
    slot.has_deadline = options.timeout_seconds > 0.0;
    if (slot.has_deadline) {
      slot.deadline =
          slot.worker.started +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(options.timeout_seconds));
    }
  };

  // A worker reached EOF: reap, classify, advance the slot's state
  // machine (deliver, back off for a retry, or abandon under drain).
  const auto settle = [&](Slot& slot) {
    const WorkerReport report =
        reap_worker(slot.worker, slot.timed_out, options.timeout_seconds);
    slot.worker = WorkerHandle{};
    const SweepPointSpec& spec = specs[slot.index];

    if (report.outcome == Outcome::kTimeout) metrics.timeouts.add(1);

    if (report.outcome != Outcome::kOk && draining) {
      // The worker most likely died from the shared signal or the
      // drain SIGKILL; recording a bogus crash would poison resume.
      if (slot.span) {
        slot.span->annotate("outcome", "abandoned");
        slot.span.reset();
      }
      slot.state = Slot::State::kIdle;
      --outstanding;
      return;
    }
    if (report.outcome != Outcome::kOk) {
      PERFORMA_LOG(kWarn, "sweep.attempt_failed")
          .kv("sweep", name)
          .kv("point", spec.id)
          .kv("attempt", static_cast<std::uint64_t>(slot.attempt))
          .kv("outcome", to_string(report.outcome))
          .kv("error", report.message)
          .kv("elapsed_s", report.elapsed_seconds);
      if (is_transient(report.outcome) &&
          slot.attempt < options.retry.max_attempts) {
        metrics.retries.add(1);
        const double backoff = options.retry.backoff_seconds(
            slot.attempt,
            sim::derive_seed(kBackoffSeed, slot.index));
        slot.state = Slot::State::kBackoff;
        slot.deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(backoff));
        return;
      }
    }
    CheckpointPoint record;
    record.index = slot.index;
    record.id = spec.id;
    record.outcome = report.outcome;
    record.attempts = slot.attempt;
    record.message = report.message;
    if (report.outcome == Outcome::kOk) record.metrics = report.result.metrics;
    if (slot.span) {
      slot.span->annotate("outcome", to_string(record.outcome));
      slot.span->annotate("attempts",
                          static_cast<std::uint64_t>(record.attempts));
      slot.span.reset();
    }
    finalize(std::move(record), seconds_since(slot.first_dispatch));
    slot.state = Slot::State::kIdle;
    --outstanding;
  };

  while (true) {
    if (!draining && sweep_interrupted()) {
      draining = true;
      sweep.interrupted = true;
      drain_deadline =
          Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(kDrainGraceSeconds));
      for (Slot& slot : slots) {
        // A point waiting out a backoff has no work in flight worth
        // draining: abandon it, resume will re-run it.
        if (slot.state == Slot::State::kBackoff) {
          if (slot.span) {
            slot.span->annotate("outcome", "abandoned");
            slot.span.reset();
          }
          slot.state = Slot::State::kIdle;
          --outstanding;
        }
      }
    }

    if (!draining) {
      for (Slot& slot : slots) {
        if (slot.state != Slot::State::kIdle) continue;
        while (next < specs.size() && done[next].has_value()) ++next;
        if (next >= specs.size()) break;
        start_attempt(slot, next++, 1);
        ++outstanding;
      }
    }

    // Publish the pool state (read by --progress and perfctl
    // --metrics) once per scheduler turn, not per transition.
    {
      std::size_t running = 0, backing_off = 0;
      for (const Slot& slot : slots) {
        if (slot.state == Slot::State::kRunning) ++running;
        if (slot.state == Slot::State::kBackoff) ++backing_off;
      }
      metrics.inflight.set(static_cast<double>(running));
      metrics.retrying.set(static_cast<double>(backing_off));
      progress.tick(running, backing_off);
    }
    if (outstanding == 0) break;

    // One poll covers every live worker and the earliest deadline
    // (per-slot timeout, per-slot backoff expiry, drain cutoff).
    std::vector<struct pollfd> pfds;
    std::vector<Slot*> pfd_slots;
    bool have_deadline = draining;
    Clock::time_point earliest = drain_deadline;
    for (Slot& slot : slots) {
      if (slot.state == Slot::State::kRunning) {
        if (!slot.worker.eof) {
          pfds.push_back({slot.worker.fd, POLLIN, 0});
          pfd_slots.push_back(&slot);
        }
        if (slot.has_deadline && !slot.timed_out &&
            (!have_deadline || slot.deadline < earliest)) {
          earliest = slot.deadline;
          have_deadline = true;
        }
      } else if (slot.state == Slot::State::kBackoff) {
        if (!have_deadline || slot.deadline < earliest) {
          earliest = slot.deadline;
          have_deadline = true;
        }
      }
    }
    int timeout_ms = -1;
    if (have_deadline) {
      const double remaining =
          std::chrono::duration<double>(earliest - Clock::now()).count();
      timeout_ms =
          remaining <= 0.0 ? 0 : static_cast<int>(remaining * 1e3) + 1;
    }
    const int ready = ::poll(pfds.empty() ? nullptr : pfds.data(),
                             static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      // poll() itself failed (fd exhaustion?): nothing sane to wait
      // on. Kill what is in flight and stop; the checkpoint holds
      // every completed point.
      for (Slot& slot : slots) {
        if (slot.state == Slot::State::kRunning) {
          kill_worker(slot.worker);
          settle(slot);
        }
      }
      sweep.interrupted = true;
      break;
    }
    if (ready > 0) {
      for (std::size_t p = 0; p < pfds.size(); ++p) {
        if (pfds[p].revents == 0) continue;
        Slot& slot = *pfd_slots[p];
        drain_worker(slot.worker);
        if (slot.worker.eof) settle(slot);
      }
    }

    const Clock::time_point now = Clock::now();
    for (Slot& slot : slots) {
      if (slot.state == Slot::State::kRunning && slot.has_deadline &&
          !slot.timed_out && now >= slot.deadline) {
        kill_worker(slot.worker);  // EOF arrives promptly; settled above
        slot.timed_out = true;
      } else if (slot.state == Slot::State::kBackoff &&
                 now >= slot.deadline) {
        start_attempt(slot, slot.index, slot.attempt + 1);
      }
    }
    if (draining && now >= drain_deadline) {
      for (Slot& slot : slots) {
        if (slot.state == Slot::State::kRunning) {
          kill_worker(slot.worker);
          settle(slot);
        }
      }
    }
  }
  metrics.inflight.set(0.0);
  metrics.retrying.set(0.0);

  sweep_span.annotate("degraded",
                      static_cast<std::uint64_t>(sweep.degraded));
  sweep_span.annotate("reused", static_cast<std::uint64_t>(sweep.reused));
  if (sweep.interrupted) sweep_span.annotate("interrupted", "true");

  // Deliver in request order. An interrupted sweep returns the longest
  // completed prefix -- out-of-order completions past the first gap are
  // already safe in the checkpoint and come back on resume.
  for (auto& record : done) {
    if (!record.has_value()) {
      if (!sweep.interrupted) {
        // Cannot happen: every non-interrupted point was finalized.
        throw NumericalError("run_sweep: point list has an internal gap");
      }
      break;
    }
    sweep.points.push_back(std::move(*record));
  }
  return sweep;
}

}  // namespace performa::runner
