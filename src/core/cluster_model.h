// The paper-facing model: an N-node degradable cluster served through one
// dispatcher queue (Sec. 2), solved exactly as an M/MMPP/1 QBD.
//
// Typical use:
//
//   ClusterParams params;                       // N=2, nu_p=2, delta=0.2,
//   params.down = make_tpt({10, 1.4, 0.2, 10}); // TPT repair, MTTR=10
//   ClusterModel model(params);
//   auto sol = model.solve(model.lambda_for_rho(0.7));
//   double nql = sol.mean_queue_length() / core::mm1::mean_queue_length(0.7);
#pragma once

#include <memory>

#include "core/blowup.h"
#include "map/lumped_aggregate.h"
#include "medist/me_dist.h"
#include "medist/tpt.h"
#include "qbd/level_dependent.h"
#include "qbd/solution.h"

namespace performa::core {

/// Cluster description (defaults reproduce the paper's running example:
/// 2 nodes, nu_p = 2, delta = 0.2, exponential MTTF 90, repair MTTR 10).
struct ClusterParams {
  unsigned n_servers = 2;
  double nu_p = 2.0;
  double delta = 0.2;
  medist::MeDistribution up = medist::exponential_from_mean(90.0);
  medist::MeDistribution down = medist::exponential_from_mean(10.0);
};

/// Analytic cluster model. Construction builds the lumped N-server MMPP;
/// each solve() call runs the matrix-geometric machinery for one arrival
/// rate.
class ClusterModel {
 public:
  explicit ClusterModel(ClusterParams params);

  const ClusterParams& params() const noexcept { return params_; }
  const map::ServerModel& server() const noexcept { return server_; }
  const map::LumpedAggregate& aggregate() const noexcept { return aggregate_; }

  /// Steady-state per-node availability A = MTTF / (MTTF + MTTR).
  double availability() const;

  /// nu_bar = N nu_p (A + delta (1 - A)).
  double mean_service_rate() const;

  /// Arrival rate achieving utilization rho, i.e. rho * nu_bar.
  double lambda_for_rho(double rho) const;
  double rho_for_lambda(double lambda) const;

  /// Blow-up analysis parameters for this cluster.
  BlowupParams blowup_params() const;

  /// Exact stationary solution of the load-independent M/MMPP/1 model.
  /// Throws NumericalError if lambda >= nu_bar (unstable); `policy` sets
  /// the verification thresholds (qbd/trust.h).
  qbd::QbdSolution solve(double lambda,
                         const qbd::TrustPolicy& policy = {}) const;

  /// Level-dependent extension: service capacity limited by the number of
  /// tasks present (Sec. 2.4); the load-independent model is an upper
  /// bound on service (hence a lower bound on queue length).
  qbd::LevelDependentSolution solve_load_dependent(double lambda) const;

  /// Mean queue length at utilization rho divided by the M/M/1 value
  /// rho/(1-rho) -- the y-axis of Figs. 1, 4, 5.
  double normalized_mean_queue_length(double rho) const;

 private:
  ClusterParams params_;
  map::ServerModel server_;
  map::LumpedAggregate aggregate_;
};

}  // namespace performa::core
