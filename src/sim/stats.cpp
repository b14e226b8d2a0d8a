#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "linalg/errors.h"

namespace performa::sim {

void SampleStats::add(double x) {
  if (!std::isfinite(x)) {
    throw NonFiniteError("SampleStats::add: non-finite sample");
  }
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_.value();
  mean_.add(delta / static_cast<double>(count_));
  m2_.add(delta * (x - mean_.value()));
}

double SampleStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_.value() / static_cast<double>(count_ - 1);
}

double SampleStats::stddev() const noexcept { return std::sqrt(variance()); }

TimeWeightedStats::TimeWeightedStats(std::size_t histogram_cap)
    : histogram_(histogram_cap + 1, 0.0) {}

void TimeWeightedStats::add(std::size_t level, double duration) {
  if (!std::isfinite(duration)) {
    throw NonFiniteError("TimeWeightedStats::add: non-finite duration");
  }
  PERFORMA_EXPECTS(duration >= 0.0, "TimeWeightedStats: negative duration");
  if (duration == 0.0) return;
  histogram_[std::min(level, histogram_.size() - 1)] += duration;
  weighted_sum_.add(static_cast<double>(level) * duration);
  total_time_.add(duration);
}

void TimeWeightedStats::reset() noexcept {
  std::fill(histogram_.begin(), histogram_.end(), 0.0);
  weighted_sum_.reset();
  total_time_.reset();
}

double TimeWeightedStats::mean() const {
  PERFORMA_EXPECTS(total_time() > 0.0, "TimeWeightedStats: no time recorded");
  return weighted_sum_.value() / total_time();
}

double TimeWeightedStats::pmf(std::size_t level) const {
  PERFORMA_EXPECTS(total_time() > 0.0, "TimeWeightedStats: no time recorded");
  if (level >= histogram_.size()) return 0.0;
  return histogram_[level] / total_time();
}

double TimeWeightedStats::tail(std::size_t level) const {
  PERFORMA_EXPECTS(total_time() > 0.0, "TimeWeightedStats: no time recorded");
  // The tail sums many near-equal bucket durations; compensation keeps
  // the bin count out of the error term.
  const std::size_t from = std::min(level, histogram_.size() - 1);
  return linalg::sum_compensated(histogram_.data() + from,
                                 histogram_.size() - from) /
         total_time();
}

double t_quantile_95(std::size_t dof) noexcept {
  // Two-sided 95% (i.e. 0.975 one-sided) quantiles, dof 1..30.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (dof == 0) return 0.0;
  if (dof <= 30) return kTable[dof - 1];
  return 1.96;
}

LogHistogram::LogHistogram(double min_value, double max_value,
                           std::size_t bins_per_decade) {
  PERFORMA_EXPECTS(0.0 < min_value && min_value < max_value,
                   "LogHistogram: need 0 < min_value < max_value");
  PERFORMA_EXPECTS(bins_per_decade >= 1, "LogHistogram: bins_per_decade >= 1");
  log_min_ = std::log10(min_value);
  log_step_ = 1.0 / static_cast<double>(bins_per_decade);
  const double decades = std::log10(max_value) - log_min_;
  n_bins_ = static_cast<std::size_t>(std::ceil(decades * bins_per_decade));
  counts_.assign(n_bins_ + 2, 0);  // [0]=underflow, [n_bins_+1]=overflow
}

std::size_t LogHistogram::bin_of(double x) const {
  if (x <= 0.0) return 0;
  const double pos = (std::log10(x) - log_min_) / log_step_;
  if (pos < 0.0) return 0;
  const auto idx = static_cast<std::size_t>(pos);
  if (idx >= n_bins_) return n_bins_ + 1;
  return idx + 1;
}

void LogHistogram::add(double x) {
  if (std::isnan(x)) {
    throw NonFiniteError("LogHistogram::add: NaN sample");
  }
  PERFORMA_EXPECTS(x >= 0.0, "LogHistogram: negative sample");
  ++counts_[bin_of(x)];
  ++count_;
}

double LogHistogram::tail(double x) const {
  if (count_ == 0) return 0.0;
  const std::size_t from = bin_of(x);
  std::size_t above = 0;
  // Count bins whose range lies fully above x: start after x's bin.
  for (std::size_t b = from + 1; b < counts_.size(); ++b) above += counts_[b];
  return static_cast<double>(above) / static_cast<double>(count_);
}

ReplicationSummary summarize_replications(const std::vector<double>& values) {
  PERFORMA_EXPECTS(!values.empty(),
                   "summarize_replications: need at least one replication");
  SampleStats stats;
  for (double v : values) stats.add(v);
  ReplicationSummary out;
  out.replications = values.size();
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  if (values.size() >= 2) {
    out.ci_halfwidth = t_quantile_95(values.size() - 1) * stats.stddev() /
                       std::sqrt(static_cast<double>(values.size()));
  }
  return out;
}

}  // namespace performa::sim
