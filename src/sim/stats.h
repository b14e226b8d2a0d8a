// Statistics collection for the simulators: streaming sample moments,
// time-weighted level statistics (queue-length process), and replication
// summaries with Student-t confidence intervals.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/compensated.h"

namespace performa::sim {

/// Streaming mean/variance via Welford's algorithm, with Neumaier
/// compensation on the mean and M2 accumulators: long runs feed billions
/// of small increments into a large running value, exactly the regime
/// where naive += loses the increment's low bits.
///
/// All accumulators in this header reject non-finite samples with a typed
/// NonFiniteError: a single NaN fed into a streaming mean silently poisons
/// every subsequent estimate and CI half-width, so it must die at the door.
class SampleStats {
 public:
  /// Throws NonFiniteError when `x` is NaN or infinite.
  void add(double x);

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_.value(); }
  /// Unbiased sample variance (0 for fewer than 2 samples).
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  linalg::CompensatedSum<double> mean_;
  linalg::CompensatedSum<double> m2_;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Time-weighted statistics of an integer-valued level process (the
/// number-in-system): integral of the level, plus a histogram capped at
/// `histogram_cap` (mass above the cap is pooled in the last bucket).
class TimeWeightedStats {
 public:
  explicit TimeWeightedStats(std::size_t histogram_cap = 4096);

  /// Record that the process sat at `level` for `duration` time units.
  void add(std::size_t level, double duration);

  /// Drop everything collected so far (end of warm-up).
  void reset() noexcept;

  double total_time() const noexcept { return total_time_.value(); }
  /// Time-average level (the simulated E[Q]).
  double mean() const;
  /// Time fraction at exactly `level` (levels above the cap pool at cap).
  double pmf(std::size_t level) const;
  /// Time fraction at or above `level` (for level <= cap).
  double tail(std::size_t level) const;

  std::size_t histogram_cap() const noexcept { return histogram_.size() - 1; }

 private:
  std::vector<double> histogram_;  // time at level k; last bucket pools >cap
  linalg::CompensatedSum<double> weighted_sum_;  // integral of level dt
  linalg::CompensatedSum<double> total_time_;
};

/// Aggregates per-replication point estimates into a mean and a 95%
/// Student-t confidence half-width.
struct ReplicationSummary {
  double mean = 0.0;
  double stddev = 0.0;       ///< across replications
  double ci_halfwidth = 0.0; ///< 95% two-sided
  std::size_t replications = 0;
};

/// Summarize independent replication estimates (needs >= 2 values for a
/// non-zero CI; throws InvalidArgument when empty).
ReplicationSummary summarize_replications(const std::vector<double>& values);

/// Two-sided 95% Student-t quantile for the given degrees of freedom
/// (tabulated to 30, normal beyond).
double t_quantile_95(std::size_t dof) noexcept;

/// Log-binned histogram for positive continuous samples (sojourn times):
/// geometric bins cover [min_value, max_value), underflow/overflow are
/// pooled at the ends. Tail queries are resolved at bin granularity.
class LogHistogram {
 public:
  /// `bins_per_decade` geometric bins between min_value and max_value.
  LogHistogram(double min_value = 1e-3, double max_value = 1e6,
               std::size_t bins_per_decade = 16);

  void add(double x);

  std::size_t count() const noexcept { return count_; }

  /// Fraction of samples strictly greater than x (bin-granular: counts
  /// all samples in bins whose lower edge is >= x).
  double tail(double x) const;

 private:
  std::size_t bin_of(double x) const;

  double log_min_;
  double log_step_;
  std::size_t n_bins_;
  std::vector<std::size_t> counts_;  // n_bins_ + 2 (under/overflow)
  std::size_t count_ = 0;
};

}  // namespace performa::sim
