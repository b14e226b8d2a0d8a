#include "runner/retry.h"

#include <algorithm>
#include <cmath>

#include "linalg/errors.h"
#include "sim/random.h"

namespace performa::runner {

void RetryPolicy::validate() const {
  PERFORMA_EXPECTS(max_attempts >= 1, "RetryPolicy: max_attempts >= 1");
  PERFORMA_EXPECTS(initial_backoff_seconds >= 0.0 && max_backoff_seconds >= 0.0,
                   "RetryPolicy: backoff durations must be >= 0");
  PERFORMA_EXPECTS(multiplier >= 1.0, "RetryPolicy: multiplier >= 1");
  PERFORMA_EXPECTS(jitter >= 0.0 && jitter < 1.0,
                   "RetryPolicy: jitter must lie in [0,1)");
}

double RetryPolicy::backoff_seconds(unsigned attempt,
                                    std::uint64_t seed) const {
  PERFORMA_EXPECTS(attempt >= 1, "RetryPolicy: attempt is 1-based");
  const double base =
      initial_backoff_seconds *
      std::pow(multiplier, static_cast<double>(attempt - 1));
  const double capped = std::min(base, max_backoff_seconds);
  // Deterministic jitter factor in [1-jitter, 1+jitter].
  const std::uint64_t z = sim::derive_seed(seed, attempt);
  const double u =
      static_cast<double>(z >> 11) * 0x1.0p-53;  // uniform in [0,1)
  return capped * (1.0 - jitter + 2.0 * jitter * u);
}

}  // namespace performa::runner
