#include "core/nburst.h"

#include <utility>

namespace performa::core {

namespace {

// A source is a "server" whose UP periods are the ON periods: it emits at
// lambda_p while ON and at rate 0 while OFF (delta = 0). The optional
// background Poisson rate is added uniformly to every phase afterwards.
map::ServerModel make_source(const NBurstParams& p) {
  return map::ServerModel(p.on, p.off, p.lambda_p, 0.0);
}

}  // namespace

NBurstModel::NBurstModel(NBurstParams params)
    : params_(std::move(params)),
      source_(make_source(params_)),
      aggregate_(source_, params_.n_sources) {
  PERFORMA_EXPECTS(params_.background_rate >= 0.0,
                   "NBurstModel: background rate must be non-negative");
}

double NBurstModel::burstiness() const {
  // availability() is the ON fraction here; b is the OFF fraction.
  return 1.0 - source_.availability();
}

double NBurstModel::mean_arrival_rate() const {
  return params_.n_sources * params_.lambda_p * (1.0 - burstiness()) +
         params_.background_rate;
}

double NBurstModel::mu_for_rho(double rho) const {
  PERFORMA_EXPECTS(rho > 0.0 && rho < 1.0, "mu_for_rho: rho in (0,1)");
  return mean_arrival_rate() / rho;
}

qbd::QbdSolution NBurstModel::solve(double mu) const {
  if (params_.background_rate == 0.0) {
    return qbd::QbdSolution(qbd::mmpp_m_1(aggregate_.mmpp(), mu));
  }
  // Shift every modulated rate by the background Poisson stream.
  linalg::Vector rates = aggregate_.mmpp().rates();
  for (double& r : rates) r += params_.background_rate;
  const map::Mmpp with_bg(aggregate_.mmpp().generator(), rates);
  return qbd::QbdSolution(qbd::mmpp_m_1(with_bg, mu));
}

}  // namespace performa::core
