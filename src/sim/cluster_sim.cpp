#include "sim/cluster_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>

#include "linalg/errors.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace performa::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Task {
  double remaining = 0.0;  // work left (speed-1 units)
  double total = 0.0;      // original work (Restart resets to this)
  double arrival = 0.0;    // arrival time (for system-time statistics)
};

struct Server {
  bool up = true;
  double next_toggle = kInf;  // absolute time of the next UP/DOWN switch
  std::optional<Task> task;
  double last_update = 0.0;   // time at which task->remaining was current

  double speed(double nu_p, double delta) const noexcept {
    return up ? nu_p : delta * nu_p;
  }
};

// Kinds of events the loop races; faults are first-class events so
// injection happens at exact simulated times (deterministic per seed).
enum class Event { kArrival, kToggle, kCompletion, kRepairDone, kCrash, kBurst };

}  // namespace

const char* to_string(FailureStrategy s) noexcept {
  switch (s) {
    case FailureStrategy::kDiscard:
      return "Discard";
    case FailureStrategy::kRestartFront:
      return "Restart(front)";
    case FailureStrategy::kRestartBack:
      return "Restart(back)";
    case FailureStrategy::kResumeFront:
      return "Resume(front)";
    case FailureStrategy::kResumeBack:
      return "Resume(back)";
  }
  return "?";
}

void ClusterSimConfig::validate() const {
  PERFORMA_EXPECTS(n_servers >= 1, "ClusterSimConfig: n_servers >= 1");
  PERFORMA_EXPECTS(nu_p > 0.0, "ClusterSimConfig: nu_p > 0");
  PERFORMA_EXPECTS(delta >= 0.0 && delta <= 1.0,
                   "ClusterSimConfig: delta in [0,1]");
  PERFORMA_EXPECTS(lambda > 0.0, "ClusterSimConfig: lambda > 0");
  PERFORMA_EXPECTS(static_cast<bool>(up) && static_cast<bool>(down) &&
                       static_cast<bool>(task_work),
                   "ClusterSimConfig: samplers must be set");
  PERFORMA_EXPECTS(cycles > 0, "ClusterSimConfig: cycles > 0");
  PERFORMA_EXPECTS(spares == 0 || repair_crews > 0,
                   "ClusterSimConfig: spares require a repair facility "
                   "(repair_crews > 0)");
  faults.validate();
}

ClusterSimResult simulate_cluster(const ClusterSimConfig& config) {
  obs::Span span("sim.cluster.run");
  config.validate();
  Rng rng(config.seed);
  const auto wall_start = std::chrono::steady_clock::now();

  const unsigned n = config.n_servers;
  const bool crash = config.delta == 0.0;

  // Sampler outputs cross a stage boundary here: a NaN or negative
  // duration would silently corrupt the event clock, so reject it with a
  // typed error at the draw site. (+inf is allowed for task work only --
  // that is the documented infinite-work degenerate scenario.)
  auto draw_duration = [&rng](const Sampler& s, const char* what) {
    const double v = s(rng);
    if (std::isnan(v) || v < 0.0 || v == kInf) {
      throw NonFiniteError(
          std::string("simulate_cluster: sampler produced an invalid "
                      "duration for ") +
          what);
    }
    return v;
  };
  auto draw_work = [&rng, &config]() {
    const double v = config.task_work(rng);
    if (std::isnan(v) || v < 0.0) {
      throw NonFiniteError(
          "simulate_cluster: task_work sampler produced NaN or a negative "
          "amount of work");
    }
    return v;
  };
  auto draw_repair = [&](void) {
    if (config.faults.zero_length_repairs) return 0.0;
    return draw_duration(config.down, "repair (down) duration");
  };

  std::vector<Server> servers(n);
  std::deque<Task> queue;
  double now = 0.0;
  auto draw_interarrival = [&]() {
    if (config.interarrival) {
      return draw_duration(config.interarrival, "interarrival time");
    }
    return std::exponential_distribution<double>(config.lambda)(rng);
  };
  double next_arrival = 0.0;

  // Shared repair facility (crews == 0: legacy independent repairs; the
  // facility code paths then never draw from the RNG, keeping legacy
  // streams bit-identical).
  const bool facility = config.repair_crews > 0;
  std::vector<double> crew_done(config.repair_crews, kInf);
  std::size_t waiting = 0;
  std::size_t spares_avail = facility ? config.spares : 0;

  ClusterSimResult result;
  TimeWeightedStats& stats = result.queue_stats;

  std::size_t cycles_done = 0;  // completed DOWN->UP transitions
  bool warm = config.warmup_cycles == 0;
  double warm_start = 0.0;

  // Scheduled fault events, sorted by time and consumed front-to-back.
  std::vector<CommonModeCrash> crashes = config.faults.crashes;
  std::vector<ArrivalBurst> bursts = config.faults.bursts;
  std::sort(crashes.begin(), crashes.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  std::sort(bursts.begin(), bursts.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  std::size_t crash_next = 0;
  std::size_t burst_next = 0;

  for (Server& s : servers) {
    s.next_toggle = draw_duration(config.up, "uptime (TTF)");
  }
  next_arrival = draw_interarrival();

  // A server can serve iff UP, or DOWN with nonzero degraded speed.
  auto can_serve = [&](const Server& s) { return s.up || !crash; };

  // Refresh remaining work to `now` (the speed was constant since
  // last_update because every speed change routes through here).
  auto advance = [&](Server& s) {
    if (s.task) {
      s.task->remaining -= (now - s.last_update) * s.speed(config.nu_p,
                                                           config.delta);
      if (s.task->remaining < 0.0) s.task->remaining = 0.0;
    }
    s.last_update = now;
  };

  auto start_next = [&](Server& s) {
    if (!queue.empty() && can_serve(s)) {
      s.task = queue.front();
      queue.pop_front();
      s.last_update = now;
    }
  };

  auto level = [&]() {
    std::size_t busy = 0;
    for (const Server& s : servers) busy += s.task.has_value() ? 1 : 0;
    return queue.size() + busy;
  };

  auto completion_time = [&](const Server& s) {
    if (!s.task) return kInf;
    const double speed = s.speed(config.nu_p, config.delta);
    if (speed <= 0.0) return kInf;
    if (s.task->remaining == kInf) return kInf;  // infinite-work scenario
    return s.last_update + s.task->remaining / speed;
  };

  // A failed unit enters the shop: a free crew starts repair immediately,
  // otherwise it joins the FCFS backlog.
  auto shop_admit = [&]() {
    for (double& cd : crew_done) {
      if (cd == kInf) {
        cd = now + draw_repair();
        return;
      }
    }
    ++waiting;
    result.max_repair_backlog = std::max(result.max_repair_backlog, waiting);
  };

  // Install an operational unit into slot s (fresh TTF clock).
  auto install_unit = [&](Server& s) {
    advance(s);
    s.up = true;
    s.next_toggle = now + draw_duration(config.up, "uptime (TTF)");
  };

  // UP -> DOWN transition of one server, shared by the renewal process
  // and by injected common-mode crashes.
  auto fail_server = [&](Server& s) {
    advance(s);
    s.up = false;
    if (facility) {
      s.next_toggle = kInf;  // recovery comes from the shop, not a clock
      shop_admit();
    } else {
      s.next_toggle = now + draw_repair();
    }
    if (s.task && crash) {
      Task t = *s.task;
      s.task.reset();
      switch (config.strategy) {
        case FailureStrategy::kDiscard:
          if (warm) ++result.discarded;
          break;
        case FailureStrategy::kRestartFront:
          t.remaining = t.total;
          queue.push_front(t);
          break;
        case FailureStrategy::kRestartBack:
          t.remaining = t.total;
          queue.push_back(t);
          break;
        case FailureStrategy::kResumeFront:
          queue.push_front(t);
          break;
        case FailureStrategy::kResumeBack:
          queue.push_back(t);
          break;
      }
    }
    // delta > 0: the task (if any) keeps running at degraded speed.
    if (facility && spares_avail > 0) {
      // Instant swap from the cold spares pool: the slot is operational
      // again before any degraded time accrues.
      --spares_avail;
      ++result.spare_swaps;
      install_unit(s);
      if (!s.task) start_next(s);
    }
  };

  // Dispatch a freshly arrived task: prefer an idle UP server; fall back
  // to an idle degraded server; otherwise queue.
  auto dispatch = [&](const Task& t) {
    Server* target = nullptr;
    for (Server& s : servers) {
      if (!s.task && s.up) {
        target = &s;
        break;
      }
    }
    if (!target && !crash) {
      for (Server& s : servers) {
        if (!s.task && !s.up) {
          target = &s;
          break;
        }
      }
    }
    if (target) {
      target->task = t;
      target->last_update = now;
    } else {
      queue.push_back(t);
    }
  };

  // Degenerate scenario: an infinite-work task pins one server forever
  // (its completion time is +inf by construction).
  if (config.faults.infinite_first_task) {
    Task t;
    t.remaining = t.total = kInf;
    t.arrival = 0.0;
    ++result.injected_arrivals;
    dispatch(t);
  }

  // Watchdog: trips on any exhausted budget. The wall clock is sampled
  // every 1024 events to keep the steady_clock reads off the hot path.
  auto budget_tripped = [&]() -> const char* {
    const SimBudget& b = config.budget;
    if (b.max_events != 0 && result.events >= b.max_events) {
      return "event budget exhausted";
    }
    if (b.max_sim_time != 0.0 && now >= b.max_sim_time) {
      return "simulated-time budget exhausted";
    }
    if (b.max_wall_seconds != 0.0 && result.events % 1024 == 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - wall_start;
      if (elapsed.count() >= b.max_wall_seconds) {
        return "wall-clock budget exhausted";
      }
    }
    return nullptr;
  };

  const std::size_t total_cycles = config.warmup_cycles + config.cycles;
  while (cycles_done < total_cycles) {
    if (const char* reason = budget_tripped()) {
      result.degraded = true;
      result.degraded_reason = reason;
      break;
    }
    ++result.events;

    // Next event: arrival, earliest toggle, earliest completion, or a
    // scheduled fault. Ties resolve in favour of the fault events (they
    // are checked last with <=-style priority via strict < on t_next),
    // i.e. a crash scheduled exactly at an arrival instant fires first
    // only if strictly earlier; simultaneous events execute in the fixed
    // order the selection below encodes, keeping runs reproducible.
    double t_next = next_arrival;
    Event ev = Event::kArrival;
    int idx = -1;
    for (unsigned i = 0; i < n; ++i) {
      if (servers[i].next_toggle < t_next) {
        t_next = servers[i].next_toggle;
        ev = Event::kToggle;
        idx = static_cast<int>(i);
      }
      const double tc = completion_time(servers[i]);
      if (tc < t_next) {
        t_next = tc;
        ev = Event::kCompletion;
        idx = static_cast<int>(i);
      }
    }
    for (std::size_t j = 0; j < crew_done.size(); ++j) {
      if (crew_done[j] < t_next) {
        t_next = crew_done[j];
        ev = Event::kRepairDone;
        idx = static_cast<int>(j);
      }
    }
    if (crash_next < crashes.size()) {
      // A fault scheduled in the past (before the loop advanced to it)
      // fires immediately.
      const double tf = std::max(crashes[crash_next].time, now);
      if (tf < t_next) {
        t_next = tf;
        ev = Event::kCrash;
      }
    }
    if (burst_next < bursts.size()) {
      const double tf = std::max(bursts[burst_next].time, now);
      if (tf < t_next) {
        t_next = tf;
        ev = Event::kBurst;
      }
    }

    if (warm) stats.add(level(), t_next - now);
    now = t_next;

    switch (ev) {
      case Event::kCompletion: {
        Server& s = servers[static_cast<std::size_t>(idx)];
        advance(s);
        if (warm) {
          ++result.completed;
          result.system_time.add(now - s.task->arrival);
          result.system_time_hist.add(now - s.task->arrival);
        }
        s.task.reset();
        start_next(s);
        break;
      }
      case Event::kToggle: {
        Server& s = servers[static_cast<std::size_t>(idx)];
        if (s.up) {
          fail_server(s);
        } else {
          // Repair completes -- unless the re-failure fault preempts it
          // and the repair starts over (drawn only when the scenario is
          // active, so fault-free runs keep their RNG stream unchanged).
          if (config.faults.repair_preemption > 0.0 &&
              std::uniform_real_distribution<double>(0.0, 1.0)(rng) <
                  config.faults.repair_preemption) {
            advance(s);
            s.next_toggle = now + draw_repair();
            ++result.repair_preemptions;
            break;
          }
          advance(s);
          s.up = true;
          s.next_toggle = now + draw_duration(config.up, "uptime (TTF)");
          ++cycles_done;
          if (!warm && cycles_done >= config.warmup_cycles) {
            warm = true;
            warm_start = now;
            stats.reset();
            // Counters start from zero after warm-up by construction.
          }
          if (!s.task) start_next(s);
        }
        break;
      }
      case Event::kRepairDone: {
        double& cd = crew_done[static_cast<std::size_t>(idx)];
        // The re-failure fault preempts the completion and the repair
        // starts over (same scenario semantics as the legacy toggle path).
        if (config.faults.repair_preemption > 0.0 &&
            std::uniform_real_distribution<double>(0.0, 1.0)(rng) <
                config.faults.repair_preemption) {
          cd = now + draw_repair();
          ++result.repair_preemptions;
          break;
        }
        ++result.repairs_completed;
        // The freed crew pulls the next waiting unit, FCFS.
        if (waiting > 0) {
          --waiting;
          cd = now + draw_repair();
        } else {
          cd = kInf;
        }
        // The repaired unit activates into a degraded slot if any,
        // otherwise it joins the cold spares pool.
        Server* slot = nullptr;
        for (Server& s : servers) {
          if (!s.up) {
            slot = &s;
            break;
          }
        }
        if (slot) {
          install_unit(*slot);
          if (!slot->task) start_next(*slot);
        } else {
          ++spares_avail;
        }
        // A facility repair completion is the cycle unit here (the
        // DOWN -> UP analogue of the legacy toggle path).
        ++cycles_done;
        if (!warm && cycles_done >= config.warmup_cycles) {
          warm = true;
          warm_start = now;
          stats.reset();
        }
        break;
      }
      case Event::kCrash: {
        // Correlated common-mode crash: take down up to k currently-UP
        // servers at one instant.
        unsigned remaining = crashes[crash_next].servers;
        ++crash_next;
        for (Server& s : servers) {
          if (remaining == 0) break;
          if (!s.up) continue;
          fail_server(s);
          --remaining;
          ++result.injected_crashes;
        }
        break;
      }
      case Event::kBurst: {
        const std::size_t count = bursts[burst_next].count;
        ++burst_next;
        for (std::size_t k = 0; k < count; ++k) {
          Task t;
          t.remaining = t.total = draw_work();
          t.arrival = now;
          ++result.injected_arrivals;
          if (warm) ++result.arrivals;
          dispatch(t);
        }
        break;
      }
      case Event::kArrival: {
        Task t;
        t.remaining = t.total = draw_work();
        t.arrival = now;
        if (warm) ++result.arrivals;
        next_arrival = now + draw_interarrival();
        dispatch(t);
        break;
      }
    }
  }

  result.cycles = cycles_done > config.warmup_cycles
                      ? cycles_done - config.warmup_cycles
                      : 0;
  result.sim_time = warm ? now - warm_start : 0.0;
  // A degraded run can end before any post-warm-up time accumulates;
  // partial statistics must not throw on the way out.
  if (stats.total_time() > 0.0) {
    result.mean_queue_length = stats.mean();
    result.probability_empty = stats.pmf(0);
  }

  // Observability is batch-added here, off the event loop: the hot path
  // above pays nothing for it. Counters are cumulative across runs in
  // this process; the span carries this run's own totals.
  {
    static obs::Counter& events = obs::counter("sim.cluster.events");
    static obs::Counter& cycles = obs::counter("sim.cluster.cycles");
    static obs::Counter& crashes = obs::counter("sim.fault.crashes");
    static obs::Counter& arrivals = obs::counter("sim.fault.arrivals");
    static obs::Counter& preempts = obs::counter("sim.fault.preemptions");
    static obs::Counter& runs_degraded = obs::counter("sim.runs.degraded");
    events.add(result.events);
    cycles.add(result.cycles);
    crashes.add(result.injected_crashes);
    arrivals.add(result.injected_arrivals);
    preempts.add(result.repair_preemptions);
    if (result.degraded) runs_degraded.add();
    span.annotate("events", static_cast<std::uint64_t>(result.events));
    span.annotate("cycles", static_cast<std::uint64_t>(result.cycles));
    if (result.degraded) span.annotate("degraded", result.degraded_reason);
  }
  return result;
}

std::vector<ClusterSimResult> replicate_cluster(const ClusterSimConfig& config,
                                                std::size_t replications) {
  PERFORMA_EXPECTS(replications >= 1, "replicate_cluster: replications >= 1");
  std::vector<ClusterSimResult> results;
  results.reserve(replications);
  for (std::size_t r = 0; r < replications; ++r) {
    ClusterSimConfig run = config;
    run.seed = derive_seed(config.seed, r);
    results.push_back(simulate_cluster(run));
  }
  return results;
}

ReplicationSummary mean_queue_length_summary(const ClusterSimConfig& config,
                                             std::size_t replications) {
  const auto results = replicate_cluster(config, replications);
  std::vector<double> means;
  means.reserve(results.size());
  for (const auto& r : results) means.push_back(r.mean_queue_length);
  return summarize_replications(means);
}

}  // namespace performa::sim
