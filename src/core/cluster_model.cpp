#include "core/cluster_model.h"

#include <utility>

#include "core/mm1.h"

namespace performa::core {

ClusterModel::ClusterModel(ClusterParams params)
    : params_(std::move(params)),
      server_(params_.up, params_.down, params_.nu_p, params_.delta),
      aggregate_(server_, params_.n_servers) {}

double ClusterModel::availability() const { return server_.availability(); }

double ClusterModel::mean_service_rate() const {
  return params_.n_servers * server_.mean_service_rate();
}

double ClusterModel::lambda_for_rho(double rho) const {
  PERFORMA_EXPECTS(rho > 0.0 && rho < 1.0,
                   "lambda_for_rho: rho must lie in (0,1)");
  return rho * mean_service_rate();
}

double ClusterModel::rho_for_lambda(double lambda) const {
  PERFORMA_EXPECTS(lambda > 0.0, "rho_for_lambda: lambda must be positive");
  return lambda / mean_service_rate();
}

BlowupParams ClusterModel::blowup_params() const {
  BlowupParams p;
  p.n_servers = params_.n_servers;
  p.nu_p = params_.nu_p;
  p.delta = params_.delta;
  p.availability = availability();
  return p;
}

qbd::QbdSolution ClusterModel::solve(double lambda,
                                     const qbd::TrustPolicy& policy) const {
  return qbd::QbdSolution(qbd::m_mmpp_1(aggregate_.mmpp(), lambda), policy);
}

qbd::LevelDependentSolution ClusterModel::solve_load_dependent(
    double lambda) const {
  return qbd::LevelDependentSolution(qbd::cluster_level_dependent_blocks(
      aggregate_, params_.nu_p, params_.delta, lambda));
}

double ClusterModel::normalized_mean_queue_length(double rho) const {
  const double mql = solve(lambda_for_rho(rho)).mean_queue_length();
  return mql / mm1::mean_queue_length(rho);
}

}  // namespace performa::core
