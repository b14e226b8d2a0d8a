// Shared plumbing for the figure-reproduction harnesses.
//
// Every fig*_ binary prints a self-describing header (which figure of the
// paper it regenerates, with the parameters) followed by CSV rows, so the
// output can be piped into any plotting tool.
//
// Simulation-backed harnesses accept the environment variable
// PERFORMA_BENCH_SCALE (default 1): UP/DOWN cycles per run, and the
// replication count where a harness replicates, are multiplied by it.
// The paper simulates 2e5 cycles x 10 replications; the scale that reaches
// its 2e5 cycles differs per harness, and the replication count there
// exceeds the paper's:
//   fig7  20000 cycles x 3 replications; scale 10 gives 2e5 x 30
//   fig8  40000 cycles x 5 replications; scale 5 gives 2e5 x 25
//   fig9  40000 cycles x 5 replications; scale 5 gives 2e5 x 25
//   ext4  20000 cycles, one run (no paper counterpart)
//   ext5  60000 cycles, one run (no paper counterpart)
// Each harness's banner names its own paper scale.
//
// Harnesses ported to the supervised runner (fig1, fig3, fig7, fig8, fig9,
// ext9) also honour:
//   PERFORMA_CHECKPOINT     checkpoint file (completed points appended)
//   PERFORMA_RESUME=1       reuse completed points from the checkpoint
//   PERFORMA_POINT_TIMEOUT  per-point wall-clock budget in seconds
//   PERFORMA_GOLDEN         golden checkpoint to regression-compare against
//   PERFORMA_JOBS           points in flight at once (default: one per
//                           hardware thread; the CSV is identical either way)
//   PERFORMA_THREADS        pool width inside each point (default: hardware
//                           threads / jobs). fig1, fig7, fig8 and fig9 run a
//                           point's independent solves and simulations as
//                           pool tasks (parallel_map); the CSV is identical
//                           at every width
//   PERFORMA_PROGRESS=1     stderr line per completed point
//   PERFORMA_TRACE          trace_event JSONL trace of the run (Perfetto)
//   PERFORMA_METRICS        metrics registry written at the end of the
//                           sweep as Prometheus text (format 0.0.4)
//   PERFORMA_LOG            NDJSON log file (default stderr); forked
//                           workers' lines are merged into it
//   PERFORMA_LOG_LEVEL      debug|info|warn|error (default info)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/kernels.h"
#include "linalg/pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/golden.h"
#include "runner/sweep.h"
#include "sim/stats.h"

namespace performa::bench {

/// Multiplier for simulation effort (cycles, replications).
inline double scale_factor() {
  const char* env = std::getenv("PERFORMA_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

inline std::size_t scaled(std::size_t base) {
  return static_cast<std::size_t>(static_cast<double>(base) * scale_factor());
}

/// Sweep-runner options from the PERFORMA_* environment (see file header).
/// Also arms trace, metrics and log output from $PERFORMA_TRACE,
/// $PERFORMA_METRICS and $PERFORMA_LOG(_LEVEL), so every runner-backed
/// figure harness is observable without code changes.
inline runner::SweepOptions sweep_options_from_env() {
  obs::init_trace_from_env();
  obs::init_metrics_from_env();
  obs::init_log_from_env();
  runner::SweepOptions opts;
  opts.jobs = 0;  // one worker per hardware thread unless overridden
  if (const char* v = std::getenv("PERFORMA_CHECKPOINT")) {
    opts.checkpoint_path = v;
  }
  if (const char* v = std::getenv("PERFORMA_RESUME")) {
    opts.resume = std::atoi(v) != 0;
  }
  if (const char* v = std::getenv("PERFORMA_POINT_TIMEOUT")) {
    opts.timeout_seconds = std::atof(v);
  }
  if (const char* v = std::getenv("PERFORMA_JOBS")) {
    const int jobs = std::atoi(v);
    if (jobs > 0) opts.jobs = static_cast<unsigned>(jobs);
  }
  if (const char* v = std::getenv("PERFORMA_PROGRESS")) {
    opts.progress = std::atoi(v) != 0;
  }
  return opts;
}

/// Post-sweep epilogue: report degraded points, honour PERFORMA_GOLDEN,
/// and map interruption to the conventional exit code. Returns the
/// process exit status (0 ok, 3 golden mismatch, 130 interrupted).
inline int finish_sweep(const char* name, const runner::SweepResult& sweep) {
  obs::flush_trace();
  obs::write_metrics_if_configured();
  for (const auto& pt : sweep.points) {
    if (pt.outcome != runner::Outcome::kOk) {
      std::printf("# degraded %s: %s after %u attempt(s): %s\n",
                  pt.id.c_str(), runner::to_string(pt.outcome), pt.attempts,
                  pt.message.c_str());
    }
  }
  if (sweep.interrupted) {
    std::fprintf(stderr,
                 "%s: sweep interrupted; checkpoint flushed, set "
                 "PERFORMA_RESUME=1 to continue\n",
                 name);
    return 130;
  }
  if (const char* g = std::getenv("PERFORMA_GOLDEN")) {
    const auto golden = runner::load_checkpoint(g);
    runner::SweepCheckpoint actual;
    actual.sweep_name = name;
    actual.points = sweep.points;
    const auto report = runner::compare_to_golden(golden, actual);
    std::fprintf(stderr, "%s", report.to_string().c_str());
    if (!report.ok()) return 3;
  }
  return 0;
}

/// Append one replicated row to a sweep: `reps` points with ids
/// "<label>/r=<r>", point r computing `fn(r)`. Returns the ids in
/// replication order (the order replication_summary expects).
inline std::vector<std::string> add_replications(
    std::vector<runner::SweepPointSpec>& points, const std::string& label,
    std::size_t reps,
    const std::function<runner::PointResult(std::size_t)>& fn) {
  std::vector<std::string> ids;
  for (std::size_t r = 0; r < reps; ++r) {
    ids.push_back(label + "/r=" + std::to_string(r));
    points.push_back({ids.back(), [fn, r]() { return fn(r); }});
  }
  return ids;
}

/// A sweep's ok points by id. An interrupted sweep holds only a prefix of
/// its points, so harnesses look points up rather than index them.
inline std::map<std::string, const runner::CheckpointPoint*> ok_points(
    const runner::SweepResult& sweep) {
  std::map<std::string, const runner::CheckpointPoint*> out;
  for (const auto& pt : sweep.points) {
    if (pt.outcome == runner::Outcome::kOk) out.emplace(pt.id, &pt);
  }
  return out;
}

/// Replication summary of `metric` over the points `ids`, one point per
/// replication in replication order: bit-identical to
/// sim::mean_queue_length_summary over the same seeds. Mean and CI are
/// NaN when a point is missing or degraded (finish_sweep reports it).
inline sim::ReplicationSummary replication_summary(
    const std::map<std::string, const runner::CheckpointPoint*>& ok,
    const std::vector<std::string>& ids, const char* metric) {
  std::vector<double> values;
  for (const auto& id : ids) {
    const auto it = ok.find(id);
    if (it == ok.end()) {
      sim::ReplicationSummary missing;
      missing.mean = missing.ci_halfwidth =
          std::numeric_limits<double>::quiet_NaN();
      return missing;
    }
    values.push_back(it->second->metric(metric));
  }
  return sim::summarize_replications(values);
}

/// fn(0), ..., fn(n-1) as tasks on this process's linalg pool, values
/// returned in index order. Inside a sweep point this spends the point's
/// PERFORMA_THREADS budget on its independent solves and simulations;
/// solver kernels reached from a task run inline (linalg/pool.h). Pool
/// tasks must not throw, so each task's exception is caught, and the
/// lowest-index one is rethrown here once every task has finished.
template <typename Fn>
auto parallel_map(std::size_t n, const Fn& fn) {
  using T = std::invoke_result_t<const Fn&, std::size_t>;
  std::vector<std::optional<T>> values(n);
  std::vector<std::exception_ptr> errors(n);
  linalg::parallel_for(n, [&](std::size_t i) {
    try {
      values[i].emplace(fn(i));
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<T> out;
  out.reserve(n);
  for (std::optional<T>& v : values) out.push_back(std::move(*v));
  return out;
}

/// Print the standard experiment banner.
inline void banner(const char* figure, const char* title,
                   const char* params) {
  std::printf("# %s -- %s\n", figure, title);
  std::printf("# paper: Schwefel & Antonios, \"Performability Models for "
              "Multi-Server Systems with High-Variance Repair Durations\", "
              "DSN 2007\n");
  std::printf("# parameters: %s\n", params);
  // Numeric provenance: backend and pool width are bit-transparent, so a
  // golden byte-diff only needs PERFORMA_THREADS pinned, not the machine.
  std::printf("# kernel: %s, threads: %u\n",
              linalg::to_string(linalg::kernel_backend()),
              linalg::pool_threads());
  if (scale_factor() != 1.0) {
    std::printf("# PERFORMA_BENCH_SCALE=%g\n", scale_factor());
  }
}

}  // namespace performa::bench
