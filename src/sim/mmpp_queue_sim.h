// Direct simulation of the load-independent M/MMPP/1 queue -- exactly the
// process the analytic QBD solves. Used to validate the numerical solution
// (the "Simulation M/2-Burst/1" crosses of Fig. 7) independently of the
// matrix-geometric machinery.
//
// All three event streams (Poisson arrivals, modulating phase changes,
// modulated exponential services) are memoryless, so the simulator simply
// races freshly drawn exponentials after every event.
#pragma once

#include <cstdint>

#include "map/mmpp.h"
#include "sim/stats.h"

namespace performa::sim {

/// Configuration of an M/MMPP/1 simulation run.
struct MmppQueueSimConfig {
  double lambda = 1.0;     ///< Poisson arrival rate
  double horizon = 1e5;    ///< simulated time after warm-up
  double warmup = 1e4;     ///< time discarded before collecting stats
  std::uint64_t seed = 1;  ///< RNG seed
};

/// Point estimates from one run.
struct MmppQueueSimResult {
  double mean_queue_length = 0.0;
  double probability_empty = 0.0;
  TimeWeightedStats queue_stats;  ///< full time-weighted distribution
  std::size_t arrivals = 0;
  std::size_t services = 0;
  std::size_t events = 0;  ///< processed events (arrival/service/phase)
};

/// Run one simulation of the M/MMPP/1 queue with the given modulating
/// service process.
MmppQueueSimResult simulate_mmpp_queue(const map::Mmpp& service,
                                       const MmppQueueSimConfig& config);

}  // namespace performa::sim
