// Random-number plumbing for the discrete-event simulators.
//
// A Sampler is a type-erased duration generator; factories cover the
// distributions the paper's experiments need (exponential, any phase-type
// via exact CTMC simulation, plus deterministic/lognormal/bounded-Pareto
// for robustness studies beyond the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <random>

#include "medist/me_dist.h"

namespace performa::sim {

/// The engine shared by all simulators. mt19937_64 is deterministic per
/// seed across platforms, which the test suite relies on.
using Rng = std::mt19937_64;

/// Type-erased duration sampler.
using Sampler = std::function<double(Rng&)>;

/// Exponential durations with the given rate.
Sampler exponential_sampler(double rate);

/// Exponential durations with the given mean.
Sampler exponential_sampler_mean(double mean);

/// Exact sampler for any phase-type matrix-exponential distribution.
Sampler me_sampler(const medist::MeDistribution& dist);

/// Constant duration (degenerate distribution).
Sampler deterministic_sampler(double value);

/// Lognormal durations with the given mean and squared coefficient of
/// variation (scv > 0).
Sampler lognormal_sampler(double mean, double scv);

/// Bounded Pareto on [x_min, x_max] with tail exponent alpha -- a direct
/// "truncated power-tail" alternative to the TPT phase-type construction.
Sampler bounded_pareto_sampler(double alpha, double x_min, double x_max);

/// Independent child seed derivation (splitmix64 step), so replications
/// and per-stream generators never share state.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

}  // namespace performa::sim
