#include "qbd/level_dependent.h"

#include <algorithm>

namespace performa::qbd {

namespace {

/// service[k-1] = diag over states s of the level-k rate with
/// `operational[s]` fully operational servers (see
/// cluster_level_dependent_blocks).
LevelDependentBlocks load_dependent_blocks(
    const Matrix& q, unsigned n, double nu_p, double delta,
    const std::vector<unsigned>& operational, double lambda) {
  PERFORMA_EXPECTS(nu_p > 0.0, "level-dependent blocks: nu_p > 0");
  PERFORMA_EXPECTS(delta >= 0.0 && delta <= 1.0,
                   "level-dependent blocks: delta in [0,1]");
  LevelDependentBlocks blocks;
  blocks.q = q;
  blocks.lambda = lambda;
  blocks.service.reserve(n);
  for (unsigned k = 1; k <= n; ++k) {
    Vector rates(operational.size(), 0.0);
    for (std::size_t s = 0; s < rates.size(); ++s) {
      const unsigned busy_up = std::min(k, operational[s]);
      const unsigned busy_down = std::min(k - busy_up, n - operational[s]);
      rates[s] = nu_p * busy_up + delta * nu_p * busy_down;
    }
    blocks.service.push_back(Matrix::diag(rates));
  }
  return blocks;
}

}  // namespace

LevelDependentBlocks cluster_level_dependent_blocks(
    const map::LumpedAggregate& cluster, double nu_p, double delta,
    double lambda) {
  std::vector<unsigned> up(cluster.state_count());
  for (std::size_t s = 0; s < up.size(); ++s) up[s] = cluster.up_count(s);
  return load_dependent_blocks(cluster.mmpp().generator(), cluster.n_servers(),
                               nu_p, delta, up, lambda);
}

LevelDependentBlocks repair_facility_level_dependent_blocks(
    const map::RepairFacility& facility, double lambda) {
  std::vector<unsigned> active(facility.state_count());
  for (std::size_t s = 0; s < active.size(); ++s) {
    active[s] = facility.active_count(s);
  }
  return load_dependent_blocks(facility.mmpp().generator(),
                               facility.n_servers(), facility.nu_p(),
                               facility.delta(), active, lambda);
}

}  // namespace performa::qbd
