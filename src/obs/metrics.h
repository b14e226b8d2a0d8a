// Named counters, gauges and histograms with a registry snapshot API.
//
// Instruments are registered once by name (`obs::counter("x")` returns
// a stable reference; call sites cache it in a function-local static)
// and updated lock-free: counters and histogram buckets are relaxed
// atomics, gauges are CAS loops over double bit patterns. Updates are
// therefore race-free under any thread mix -- the registry lock is
// taken only on first registration and when snapshotting.
//
// Instrumentation discipline: hot loops never update an instrument per
// iteration; they accumulate locally and batch-add at a stage boundary
// (one attempt, one simulation run), so metrics stay on even when
// tracing is off -- this is what lets `perfctl sweep --progress` show
// live pool statistics without any flag.
//
// Metrics are per-process: a forked worker inherits a snapshot of the
// registry and its increments die with it (its spans and log lines go
// to the inherited trace and log fds).
// The supervisor's registry describes the supervisor.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace performa::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) noexcept;
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two-bucketed histogram of non-negative samples (latencies,
/// sizes). Bucket b holds samples in [2^(b-32), 2^(b-31)), so the
/// usable range spans ~2^-32 .. 2^31 with <= 2x relative quantile
/// error -- plenty for "where did the time go" diagnostics. Samples at
/// or above the top bucket edge (2^32) land in an explicit overflow
/// bin that also tracks the largest sample seen, so quantiles falling
/// there report a true upper bound instead of silently clamping to the
/// last finite edge (and the Prometheus mapping gets an honest +Inf
/// bucket). Updates are relaxed atomics; a snapshot taken concurrently
/// with updates is a consistent-enough view (each bucket individually
/// exact).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double v) noexcept;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  /// Upper bound of the bucket holding the q-quantile (q in [0,1]);
  /// 0 when empty. A quantile landing in the overflow bin reports the
  /// largest sample recorded there (an exact bound, not a bucket edge).
  double quantile(double q) const noexcept;
  std::uint64_t bucket(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Samples >= 2^32 (above the top finite bucket).
  std::uint64_t overflow() const noexcept {
    return overflow_.load(std::memory_order_relaxed);
  }
  /// Largest overflow sample seen; 0 when the overflow bin is empty.
  double overflow_max() const noexcept {
    return overflow_max_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<double> overflow_max_{0.0};
};

/// Registry lookup: returns the instrument registered under `name`,
/// creating it on first use. References stay valid for the process
/// lifetime. Registering one name as two different kinds throws
/// std::runtime_error.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    double value = 0.0;         ///< counter/gauge value; histogram mean
    std::uint64_t count = 0;    ///< histogram sample count
    double sum = 0.0;           ///< histogram sample sum
    std::vector<std::uint64_t> buckets;  ///< histogram per-bucket counts
    std::uint64_t overflow = 0;          ///< samples above the top bucket
    double overflow_max = 0.0;           ///< largest overflow sample
  };
  std::vector<Entry> entries;  ///< sorted by name

  const Entry* find(const std::string& name) const noexcept;
};

MetricsSnapshot snapshot_metrics();

/// Write the registry to `path` as Prometheus text exposition (the
/// format performad's /metrics serves; prometheus.h). Throws
/// std::runtime_error when the file cannot be opened, written or
/// closed.
void write_metrics_file(const std::string& path);

/// Remember $PERFORMA_METRICS as the metrics output path. Returns true
/// when a path is configured (env or a prior set_metrics_path call).
bool init_metrics_from_env();
void set_metrics_path(const std::string& path);
/// Write the snapshot to the configured path, if any. Returns true
/// when a file was written.
bool write_metrics_if_configured();

/// Zero every registered instrument (tests).
void reset_metrics_for_test();

}  // namespace performa::obs
