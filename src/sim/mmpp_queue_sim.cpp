#include "sim/mmpp_queue_sim.h"

#include <limits>
#include <random>

#include "linalg/errors.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/random.h"

namespace performa::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Precomputed per-phase jump distribution of the modulating chain.
struct PhaseJumps {
  double hold_rate;                 // -q(i,i)
  std::vector<double> cdf;          // cumulative transition probabilities
  std::vector<std::size_t> target;  // destinations
};

std::vector<PhaseJumps> build_jumps(const map::Mmpp& mmpp) {
  const auto& q = mmpp.generator();
  std::vector<PhaseJumps> jumps(mmpp.dim());
  for (std::size_t i = 0; i < mmpp.dim(); ++i) {
    PhaseJumps& j = jumps[i];
    j.hold_rate = -q(i, i);
    double cum = 0.0;
    for (std::size_t k = 0; k < mmpp.dim(); ++k) {
      if (k == i || q(i, k) <= 0.0) continue;
      cum += q(i, k) / j.hold_rate;
      j.cdf.push_back(cum);
      j.target.push_back(k);
    }
    if (!j.cdf.empty()) j.cdf.back() = 1.0;
  }
  return jumps;
}

}  // namespace

MmppQueueSimResult simulate_mmpp_queue(const map::Mmpp& service,
                                       const MmppQueueSimConfig& config) {
  PERFORMA_SPAN("sim.mmpp_queue.run");
  PERFORMA_EXPECTS(config.lambda > 0.0, "simulate_mmpp_queue: lambda > 0");
  PERFORMA_EXPECTS(config.horizon > 0.0 && config.warmup >= 0.0,
                   "simulate_mmpp_queue: bad time configuration");

  Rng rng(config.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  auto exp_draw = [&rng](double rate) {
    return std::exponential_distribution<double>(rate)(rng);
  };

  const std::vector<PhaseJumps> jumps = build_jumps(service);

  // Start in the stationary phase to shorten warm-up.
  std::size_t phase = 0;
  const auto pi = service.stationary_phases();
  double u = uni(rng), cum = 0.0;
  for (std::size_t i = 0; i < pi.size(); ++i) {
    cum += pi[i];
    if (u <= cum) {
      phase = i;
      break;
    }
  }

  MmppQueueSimResult result;
  TimeWeightedStats& stats = result.queue_stats;

  double now = 0.0;
  std::size_t queue = 0;
  const double end = config.warmup + config.horizon;
  bool warm = config.warmup == 0.0;

  // Scheduled next-arrival; service and phase-change are redrawn after
  // every event (valid by memorylessness).
  double next_arrival = exp_draw(config.lambda);

  while (now < end) {
    const double svc_rate = queue > 0 ? service.rates()[phase] : 0.0;
    const double t_service =
        svc_rate > 0.0 ? now + exp_draw(svc_rate) : kInf;
    const double t_phase = jumps[phase].hold_rate > 0.0
                               ? now + exp_draw(jumps[phase].hold_rate)
                               : kInf;

    double t_next = std::min({next_arrival, t_service, t_phase});
    bool clipped = false;
    if (t_next > end) {
      t_next = end;
      clipped = true;
    }

    // Account time spent at the current level.
    if (warm) {
      stats.add(queue, t_next - now);
    } else if (t_next >= config.warmup) {
      // Split the interval at the warm-up boundary.
      stats.add(queue, t_next - config.warmup);
      warm = true;
    }

    now = t_next;
    if (clipped) break;
    ++result.events;

    if (now == next_arrival) {
      ++queue;
      if (warm) ++result.arrivals;
      next_arrival = now + exp_draw(config.lambda);
    } else if (now == t_service) {
      --queue;
      if (warm) ++result.services;
    } else {
      // Phase change.
      const PhaseJumps& j = jumps[phase];
      const double u = uni(rng);
      std::size_t k = 0;
      while (k + 1 < j.cdf.size() && u > j.cdf[k]) ++k;
      phase = j.target[k];
    }
  }

  if (stats.total_time() > 0.0) {
    result.mean_queue_length = stats.mean();
    result.probability_empty = stats.pmf(0);
  }
  // Batch the run's totals into the metrics registry once per call so the
  // event loop itself stays uninstrumented.
  {
    static obs::Counter& runs = obs::counter("sim.mmpp_queue.runs");
    static obs::Counter& events = obs::counter("sim.mmpp_queue.events");
    runs.add(1);
    events.add(result.events);
  }
  return result;
}

}  // namespace performa::sim
