// Golden-result regression comparison.
//
// A golden file is simply a checkpoint that has been reviewed and
// committed; comparing a fresh sweep against it turns "the numbers
// moved" into a structured report instead of an eyeball diff of CSV
// dumps. Every metric is held to one relative tolerance, 1e-12: a correct
// resume is bit-exact, so the comparison is tight on purpose.
#pragma once

#include <string>
#include <vector>

#include "runner/checkpoint.h"

namespace performa::runner {

/// One disagreement between golden and actual.
struct GoldenDiff {
  enum class Kind {
    kMissingPoint,    ///< golden point absent from the actual sweep
    kOutcome,         ///< outcomes differ (e.g. ok -> solver-failure)
    kMissingMetric,   ///< metric present in golden, absent in actual
    kValue,           ///< metric outside tolerance
  };
  Kind kind = Kind::kValue;
  std::string point_id;
  std::string metric;        ///< empty for point-level diffs
  double expected = 0.0;
  double actual = 0.0;
  double rel_error = 0.0;
};

struct GoldenReport {
  std::vector<GoldenDiff> diffs;
  std::size_t points_compared = 0;
  std::size_t metrics_compared = 0;

  bool ok() const noexcept { return diffs.empty(); }
  std::string to_string() const;
};

/// Compare an actual sweep against a golden one. Degraded golden points
/// (outcome != ok) only require the outcome to match; extra points in
/// the actual sweep are ignored (supersets are fine).
GoldenReport compare_to_golden(const SweepCheckpoint& golden,
                               const SweepCheckpoint& actual);

}  // namespace performa::runner
