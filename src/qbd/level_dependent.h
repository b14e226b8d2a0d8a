// Level-dependent boundary extension of the cluster queue (Sec. 2.4 of the
// paper, following the approach of Krieger/Naumov and Schwefel's TCP
// model): with fewer tasks than servers, not all servers can be busy, so
// the service-completion rates in the first N level rows differ.
//
// Levels 0..C-1 carry level-specific service matrices M_k (rate of the
// k -> k-1 transition); from level C on the process is homogeneous and the
// usual matrix-geometric tail pi_{C+j} = pi_C R^j applies. QbdSolution
// solves these blocks through the same certified pipeline as the
// homogeneous queue (six trust checks, the two-rung healing ladder,
// spans and deadline polls); this header only builds them.
#pragma once

#include <vector>

#include "map/lumped_aggregate.h"
#include "map/repair_facility.h"
#include "qbd/solution.h"

namespace performa::qbd {

/// Description of a QBD whose first C levels are inhomogeneous.
struct LevelDependentBlocks {
  Matrix q;                       ///< phase-process generator
  double lambda = 0.0;            ///< Poisson arrival rate
  std::vector<Matrix> service;    ///< service[k] = M_{k+1}, k = 0..C-1;
                                  ///< service.back() repeats for levels > C
  std::size_t phase_dim() const noexcept { return q.rows(); }
};

/// The level-dependent solution is a QbdSolution with C boundary levels.
using LevelDependentSolution = QbdSolution;

/// Build the load-dependent cluster queue on the lumped state space:
/// with k tasks in the system and occupancy state s (u UP servers), the
/// service rate is
///
///   nu_k(s) = nu_p * min(k, u) + delta * nu_p * min(max(k-u, 0), N-u),
///
/// i.e. the dispatcher keeps as many tasks as possible on fully
/// operational servers and overflow tasks run degraded. For k >= N this
/// equals the load-independent Eq. (2) of the paper.
LevelDependentBlocks cluster_level_dependent_blocks(
    const map::LumpedAggregate& cluster, double nu_p, double delta,
    double lambda);

/// Same construction on the shared-repair-facility process: the per-state
/// operational-slot count a replaces the UP count, so repair contention
/// (fewer operational slots, longer DOWN excursions) feeds straight into
/// the service rates. When the facility is homogeneous (c >= N, s = 0)
/// the blocks equal cluster_level_dependent_blocks on the delegated
/// LumpedAggregate bit-for-bit.
LevelDependentBlocks repair_facility_level_dependent_blocks(
    const map::RepairFacility& facility, double lambda);

}  // namespace performa::qbd
