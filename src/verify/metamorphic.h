// Metamorphic cross-validation harness.
//
// A solver bug that shifts every answer by a few percent passes any test
// whose oracle is the solver itself. Metamorphic relations need no
// external oracle: they assert how the *answer must transform* when the
// *model* is transformed in a way the mathematics fully understands.
// The harness draws random cluster configurations from a seed (every
// failure message carries the seed and the full parameter spec, so any
// CI failure replays locally with one environment variable) and checks:
//
//   rate-scaling        speeding every rate up by c leaves the stationary
//                       queue-length distribution untouched
//   server-permutation  relabelling the servers of a heterogeneous
//                       cluster cannot change the aggregate queue
//   lumped-vs-full      the lumped occupancy chain and the full Kronecker
//                       product chain describe the same process
//   lambda-monotone     the mean queue length is strictly increasing in
//                       the arrival rate
//   tail-exponent       in blow-up region i the queue pmf decays with the
//                       paper's exponent beta_i = i(alpha - 1) + 1
//   ld-vs-homogeneous   level-dependent blocks with constant service are
//                       the homogeneous queue, solved through C boundary
//                       levels instead of one
//
// tests/metamorphic_test.cpp runs each relation over a battery of draws;
// PERFORMA_METAMORPHIC_MODELS / PERFORMA_METAMORPHIC_SEED scale the
// battery up (the CI drill runs hundreds of models) or replay a failure.
#pragma once

#include <string>

#include "map/lumped_aggregate.h"
#include "map/mmpp.h"

namespace performa::verify {

/// One random cluster configuration, fully determined by `seed`: the
/// same seed reproduces the same model bit-for-bit on every platform
/// that ships the same std::mt19937_64 (all of them; the engine is
/// specified exactly).
struct ModelDraw {
  unsigned seed = 0;
  unsigned n_servers = 1;
  unsigned t_phases = 1;  ///< repair phases; 1 = exponential repair
  double nu_p = 2.0;
  double delta = 0.2;
  double mttf = 90.0;
  double mttr = 10.0;
  double alpha = 1.4;  ///< TPT tail exponent (used when t_phases > 1)
  double theta = 0.2;  ///< TPT weight decay
  double rho = 0.5;    ///< drawn utilization in the always-stable band

  /// One-line parameter spec, sufficient to reconstruct the model by
  /// hand; embedded in every failure detail.
  std::string spec() const;

  /// The single-server building block of this draw.
  map::ServerModel server() const;

  /// The lumped N-server MMPP of this draw.
  map::Mmpp mmpp() const;
};

/// Draw the configuration deterministically from `seed`.
ModelDraw draw_model(unsigned seed);

/// Outcome of one relation on one draw: `detail` always carries the
/// measured quantities, and on failure additionally the draw's spec().
struct RelationOutcome {
  bool pass = true;
  std::string detail;
};

RelationOutcome check_rate_scaling(const ModelDraw& draw);
RelationOutcome check_server_permutation(const ModelDraw& draw);
RelationOutcome check_lumped_vs_full(const ModelDraw& draw);
RelationOutcome check_lambda_monotonicity(const ModelDraw& draw);
RelationOutcome check_tail_exponent(const ModelDraw& draw);
/// Cross-path relation: level-dependent blocks whose every service level
/// equals the top level must reproduce the homogeneous solve.
RelationOutcome check_level_dependent_vs_homogeneous(const ModelDraw& draw);

/// Battery size: $PERFORMA_METAMORPHIC_MODELS, else `fallback`.
unsigned metamorphic_model_count(unsigned fallback);

/// Seed base: $PERFORMA_METAMORPHIC_SEED, else `fallback`. Case i of a
/// battery uses seed base + i.
unsigned metamorphic_seed_base(unsigned fallback);

}  // namespace performa::verify
