// Level-independent Quasi-Birth-Death process with a single boundary level.
//
// Infinitesimal generator, in block-tridiagonal form:
//
//        [ B00  B01            ]
//        [ B10  A1   A0        ]
//   Q =  [      A2   A1   A0   ]
//        [           A2   A1  ... ]
//
// Level 0 is the boundary (empty queue: no service events), levels >= 1
// are homogeneous. All blocks share one phase dimension m.
#pragma once

#include "map/lumped_aggregate.h"
#include "map/map_process.h"
#include "map/mmpp.h"

namespace performa::qbd {

using linalg::Matrix;
using linalg::Vector;

/// Block description of a QBD queue.
struct QbdBlocks {
  Matrix b00;  ///< boundary local block (level 0)
  Matrix b01;  ///< boundary up-transitions (level 0 -> 1)
  Matrix b10;  ///< down-transitions from level 1 to the boundary
  Matrix a0;   ///< up (arrival) block, levels >= 1
  Matrix a1;   ///< local block, levels >= 1
  Matrix a2;   ///< down (service) block, levels >= 2

  std::size_t phase_dim() const noexcept { return a1.rows(); }

  /// Throws InvalidArgument unless all blocks are m x m and the block rows
  /// form valid generator rows (non-negative off-level blocks, level rows
  /// summing to zero).
  void validate() const;
};

/// M/MMPP/1 queue: Poisson(lambda) arrivals into a single queue whose
/// service completions follow the MMPP <Q, M> (the aggregated cluster of
/// Sec. 2.2). Blocks: B00 = Q - lambda I, B01 = A0 = lambda I,
/// B10 = A2 = M, A1 = Q - lambda I - M.
QbdBlocks m_mmpp_1(const map::Mmpp& service, double lambda);

/// MAP/M/1 dual (the N-Burst teletraffic model of Sec. 2.3): MMPP arrivals
/// <Q, L> into a single exponential server of rate mu.
QbdBlocks mmpp_m_1(const map::Mmpp& arrivals, double mu);

/// General MAP/MMPP/1 queue (paper Sec. 2.4, first bullet): MAP arrivals
/// <D0, D1> -- e.g. a matrix-exponential renewal process -- into the
/// cluster's MMPP service process. The phase space is the Kronecker
/// product (arrival phases) x (service phases):
///   A0 = D1 (x) I,   A1 = D0 (x) I + I (x) (Q - M),   A2 = I (x) M,
///   B00 = D0 (x) I + I (x) Q.
QbdBlocks map_mmpp_1(const map::Map& arrivals, const map::Mmpp& service);

/// MAP/M/1: MAP arrivals into one exponential server of rate mu.
QbdBlocks map_m_1(const map::Map& arrivals, double mu);

/// M/MAP/1: Poisson arrivals into a MAP *service* process -- the model
/// for phase-type task times in the cluster (Sec. 2.4, "Hyperexponential
/// task times"). The service phase process free-runs while the queue is
/// empty (its marked events are simply not completions then), exactly the
/// convention the MMPP special case uses:
///   A0 = lambda I, A1 = D0 - lambda I, A2 = D1, B00 = D0 + D1 - lambda I.
QbdBlocks m_map_1(const map::Map& service, double lambda);

/// Analytic Discard model for crash faults (paper Sec. 2.4, last bullet):
/// the service process becomes a MAP in which every failure of an UP
/// server is also a (unsuccessful) departure that removes the task being
/// executed. Only valid for delta = 0 clusters (degraded servers do not
/// interrupt tasks). Blocks:
///   A2 = M + C,  A1 = (Q - C) - lambda I - M,  A0 = lambda I,
///   B00 = Q - lambda I  (an empty system loses no task on a crash),
/// where C collects the lumped transitions in which up_count decreases.
QbdBlocks m_mmpp_1_discard(const map::LumpedAggregate& cluster,
                           double lambda);

/// Long-run fraction of arriving tasks that the Discard model removes
/// (crash interruptions per arrival), computed from a solved QBD.
/// `pi_levels_ge1` is the phase marginal over levels >= 1, i.e.
/// pi_1 (I-R)^{-1}; see QbdSolution::phase_marginal_busy().
double discard_fraction(const map::LumpedAggregate& cluster, double lambda,
                        const linalg::Vector& pi_levels_ge1);

/// Stability: mean drift up < mean drift down, i.e. the stationary event
/// rate of A0 is less than that of A2 under the phase process generator.
/// For m_mmpp_1 this is lambda < mean service rate.
bool is_stable(const QbdBlocks& blocks);

/// Utilization rho = (stationary up-rate) / (stationary down-rate).
double utilization(const QbdBlocks& blocks);

}  // namespace performa::qbd
