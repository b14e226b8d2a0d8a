// The N-Burst teletraffic dual (Sec. 2.3 of the paper).
//
// N statistically identical ON/OFF sources emit packets at peak rate
// lambda_p while ON; the aggregate feeds a single exponential server of
// rate mu. This is an MMPP/M/1 queue built from exactly the same
// machinery as the cluster model with the roles of arrival and service
// processes swapped:
//
//   cluster (M/MMPP/1)                 telco (MMPP/M/1)
//   -------------------                ------------------
//   N servers                          N sources
//   service rate during UP: nu_p       arrival rate during ON: lambda_p
//   availability A = MTTF/(MTTF+MTTR)  burstiness b = OFF/(ON+OFF)
//   avg service rate N nu_p A (d=0)    avg arrival rate N lambda_p (1-b)
//
// High-variance OFF... no: high-variance *ON* periods play the role the
// high-variance repair (DOWN) periods play in the cluster -- both modulate
// the rate that saturates the queue.
#pragma once

#include "map/lumped_aggregate.h"
#include "medist/me_dist.h"
#include "qbd/solution.h"

namespace performa::core {

/// N-Burst traffic model parameters.
struct NBurstParams {
  unsigned n_sources = 2;
  double lambda_p = 2.0;  ///< peak packet rate while ON
  medist::MeDistribution on = medist::exponential_from_mean(10.0);
  medist::MeDistribution off = medist::exponential_from_mean(90.0);
  double background_rate = 0.0;  ///< optional non-bursty Poisson background
};

/// MMPP/M/1 queue fed by N aggregated ON/OFF sources.
class NBurstModel {
 public:
  explicit NBurstModel(NBurstParams params);

  const NBurstParams& params() const noexcept { return params_; }

  /// Fraction of time a source is OFF (the paper's burst parameter b).
  double burstiness() const;

  /// Long-run aggregate arrival rate N lambda_p (1-b) + background.
  double mean_arrival_rate() const;

  /// Service rate giving utilization rho: mu = mean_arrival_rate() / rho.
  double mu_for_rho(double rho) const;

  /// The aggregated arrival MMPP.
  const map::Mmpp& arrivals() const noexcept { return aggregate_.mmpp(); }

  /// Stationary solution of the MMPP/M/1 queue with service rate mu.
  qbd::QbdSolution solve(double mu) const;

 private:
  NBurstParams params_;
  map::ServerModel source_;  // reuses the UP/DOWN machinery: ON<->UP
  map::LumpedAggregate aggregate_;
};

}  // namespace performa::core
