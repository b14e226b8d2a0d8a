// N-server aggregation by Kronecker sums (the paper's Eq. for Q_N, L_N):
//
//   Q_N = Q1 ⊕ Q1 ⊕ ... ⊕ Q1,    L_N = L1 ⊕ L1 ⊕ ... ⊕ L1.
//
// The state space distinguishes servers and therefore has size m^N for
// m per-server phases. Exact but exponential in N -- use the lumped
// construction (lumped_aggregate.h) for anything beyond small N; the two
// are verified against each other in the test suite.
#pragma once

#include <vector>

#include "map/server_model.h"

namespace performa::map {

/// MMPP of independent servers over the full (distinguishable) product
/// state space. For the paper's N statistically identical servers pass
/// `std::vector<ServerModel>(n, server)`. The servers may also be
/// *heterogeneous* (different speeds, fault and repair processes): the
/// Kronecker construction does not care, but no lumping is possible then,
/// so keep the cluster small. Answers design questions like "two reliable
/// nodes or three flaky ones?".
Mmpp heterogeneous_aggregate(const std::vector<ServerModel>& servers);

}  // namespace performa::map
