// Discrete-event simulation of the physical N-server cluster (Sec. 4 of
// the paper): a FIFO dispatcher queue, N servers with their own UP/DOWN
// renewal processes, degraded service speed delta*nu_p while DOWN, and --
// for crash faults (delta = 0) -- the Discard / Restart / Resume failure
// handling strategies with front- or back-of-queue re-insertion.
//
// Unlike the analytic M/MMPP/1 model this simulator is load-dependent:
// a task is served by one server, so with fewer tasks than servers the
// cluster cannot use its full capacity (the effect quantified in Fig. 7).
//
// Optionally the independent per-server repairs are replaced by a shared
// repair facility (repair_crews / spares below) with the same two-echelon
// semantics as map/repair_facility.h, for cross-validating the
// level-dependent analytic model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_injection.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace performa::sim {

/// What happens to the task being executed when its server crashes
/// (only meaningful for delta = 0; degraded servers keep working).
enum class FailureStrategy {
  kDiscard,       ///< drop the interrupted task entirely
  kRestartFront,  ///< re-run from scratch, head of the queue
  kRestartBack,   ///< re-run from scratch, tail of the queue
  kResumeFront,   ///< continue from the interruption point, head of queue
  kResumeBack,    ///< continue from the interruption point, tail of queue
};

const char* to_string(FailureStrategy s) noexcept;

/// Simulation parameters. Durations come from type-erased samplers so any
/// distribution (phase-type or not) can be plugged in.
struct ClusterSimConfig {
  unsigned n_servers = 2;
  double nu_p = 2.0;    ///< service speed of an UP server
  double delta = 0.2;   ///< speed factor while DOWN (0 = crash)
  double lambda = 1.0;  ///< Poisson task arrival rate

  Sampler up = exponential_sampler_mean(90.0);    ///< TTF durations
  Sampler down = exponential_sampler_mean(10.0);  ///< TTR durations
  /// Optional renewal interarrival sampler. Unset (default): Poisson
  /// arrivals at rate `lambda`. When set, it drives the arrival process
  /// and `lambda` is only documentation (Sec. 2.4: general task arrival
  /// processes).
  Sampler interarrival;
  /// Task work requirement (mean 1.0 reproduces the paper's exponential
  /// task times with mean 1/nu_p at full speed).
  Sampler task_work = exponential_sampler(1.0);

  FailureStrategy strategy = FailureStrategy::kResumeBack;

  /// Shared repair facility (map/repair_facility.h semantics). 0 crews =
  /// the paper's unlimited independent repairs (legacy behaviour, RNG
  /// stream unchanged). With crews > 0, failed units queue FCFS for one
  /// of `repair_crews` crews, `spares` cold standby units fill emptied
  /// slots instantly, and a slot with no operational unit runs degraded
  /// at delta*nu_p until a repaired unit arrives.
  unsigned repair_crews = 0;
  unsigned spares = 0;

  /// Stop after this many completed UP/DOWN cycles (counted across all
  /// servers, after warm-up). The paper uses 2e5 cycles per run.
  std::size_t cycles = 20000;
  /// Cycles discarded before statistics collection starts.
  std::size_t warmup_cycles = 2000;

  std::uint64_t seed = 1;

  /// Deterministic fault-injection plan (empty by default). Scheduled
  /// events fire at exact simulated times, so runs stay reproducible per
  /// seed.
  FaultPlan faults;
  /// Watchdog budget; a tripped budget stops the run and returns partial
  /// statistics flagged as degraded instead of hanging (e.g. when a
  /// scenario makes the system unstable).
  SimBudget budget;

  void validate() const;
};

/// Point estimates from one simulation run.
struct ClusterSimResult {
  double mean_queue_length = 0.0;  ///< time-average number in system
  double probability_empty = 0.0;
  TimeWeightedStats queue_stats;  ///< full time-weighted distribution
  SampleStats system_time;        ///< sojourn times of *completed* tasks
  /// Log-binned sojourn-time distribution of completed tasks, for
  /// delay-bound (QoS) tail estimates Pr(S > d).
  LogHistogram system_time_hist{1e-3, 1e7, 16};
  std::size_t arrivals = 0;
  std::size_t completed = 0;
  std::size_t discarded = 0;  ///< tasks dropped by the Discard strategy
  std::size_t cycles = 0;     ///< UP/DOWN cycles simulated after warm-up
  double sim_time = 0.0;      ///< simulated time after warm-up

  // Watchdog / fault-injection bookkeeping.
  bool degraded = false;      ///< a budget tripped; statistics are partial
  std::string degraded_reason;
  std::size_t events = 0;               ///< total events processed
  std::size_t injected_crashes = 0;     ///< servers hit by common-mode crashes
  std::size_t injected_arrivals = 0;    ///< tasks injected by bursts
  std::size_t repair_preemptions = 0;   ///< repairs that re-failed mid-repair

  // Repair-facility bookkeeping (zero in legacy unlimited-repair runs).
  std::size_t repairs_completed = 0;    ///< facility repair completions
  std::size_t spare_swaps = 0;          ///< failed slots refilled from spares
  std::size_t max_repair_backlog = 0;   ///< peak FCFS repair-queue length
};

/// Run one simulation.
ClusterSimResult simulate_cluster(const ClusterSimConfig& config);

/// Run `replications` independent runs (seeds derived from config.seed)
/// and return all results.
std::vector<ClusterSimResult> replicate_cluster(const ClusterSimConfig& config,
                                                std::size_t replications);

/// Convenience: replication summary of the mean queue length.
ReplicationSummary mean_queue_length_summary(const ClusterSimConfig& config,
                                             std::size_t replications);

}  // namespace performa::sim
