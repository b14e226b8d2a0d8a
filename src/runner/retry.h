// Retry policy for transient worker failures: exponential backoff,
// capped, with deterministic jitter.
//
// The jitter is derived from a seed (splitmix64 of seed x attempt), not
// from wall-clock entropy, so a resumed sweep schedules byte-identical
// retries -- determinism extends to the supervision layer itself.
#pragma once

#include <cstdint>

namespace performa::runner {

struct RetryPolicy {
  /// Total attempts per point, including the first one. 1 = no retries.
  unsigned max_attempts = 3;
  double initial_backoff_seconds = 0.5;
  double multiplier = 2.0;
  double max_backoff_seconds = 30.0;
  /// Backoff is scaled by a factor uniform in [1-jitter, 1+jitter] so
  /// restarted workers do not re-collide with whatever killed them.
  double jitter = 0.25;

  /// Throws InvalidArgument on nonsense (zero attempts, negative
  /// durations, multiplier < 1, jitter outside [0,1)).
  void validate() const;

  /// Backoff before retry number `attempt` (1 = after the first
  /// failure). Deterministic in (attempt, seed).
  double backoff_seconds(unsigned attempt, std::uint64_t seed) const;
};

}  // namespace performa::runner
