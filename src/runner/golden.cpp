#include "runner/golden.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

namespace performa::runner {

namespace {

constexpr double kRelTol = 1e-12;

}  // namespace

GoldenReport compare_to_golden(const SweepCheckpoint& golden,
                               const SweepCheckpoint& actual) {
  GoldenReport report;
  std::set<std::string> seen;  // duplicates in the golden count once
  for (const CheckpointPoint& g : golden.points) {
    if (!seen.insert(g.id).second) continue;
    const CheckpointPoint* latest = golden.find(g.id);  // appends win
    const CheckpointPoint* a = actual.find(g.id);
    if (a == nullptr) {
      report.diffs.push_back(
          {GoldenDiff::Kind::kMissingPoint, g.id, "", 0.0, 0.0, 0.0});
      continue;
    }
    ++report.points_compared;
    if (latest->outcome != a->outcome) {
      GoldenDiff d;
      d.kind = GoldenDiff::Kind::kOutcome;
      d.point_id = g.id;
      d.metric = std::string(to_string(latest->outcome)) + " -> " +
                 to_string(a->outcome);
      report.diffs.push_back(std::move(d));
      continue;
    }
    for (const auto& [name, expected] : latest->metrics) {
      const double value = a->metric(name);
      if (std::isnan(value) && !std::isnan(expected)) {
        report.diffs.push_back(
            {GoldenDiff::Kind::kMissingMetric, g.id, name, expected, value,
             0.0});
        continue;
      }
      ++report.metrics_compared;
      // Before the error: equal infinities differ by inf - inf = NaN.
      if (value == expected) continue;
      const double abs_err = std::fabs(value - expected);
      if (std::isnan(expected) && std::isnan(value)) continue;
      const double scale = std::fabs(expected);
      const double rel = scale > 0.0 ? abs_err / scale
                                     : std::numeric_limits<double>::infinity();
      if (!(rel <= kRelTol)) {
        report.diffs.push_back(
            {GoldenDiff::Kind::kValue, g.id, name, expected, value, rel});
      }
    }
  }
  return report;
}

std::string GoldenReport::to_string() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof line,
                "golden comparison: %zu point(s), %zu metric(s), %zu "
                "disagreement(s)\n",
                points_compared, metrics_compared, diffs.size());
  out += line;
  for (const GoldenDiff& d : diffs) {
    switch (d.kind) {
      case GoldenDiff::Kind::kMissingPoint:
        std::snprintf(line, sizeof line, "  %s: MISSING from actual sweep\n",
                      d.point_id.c_str());
        break;
      case GoldenDiff::Kind::kOutcome:
        std::snprintf(line, sizeof line, "  %s: outcome changed (%s)\n",
                      d.point_id.c_str(), d.metric.c_str());
        break;
      case GoldenDiff::Kind::kMissingMetric:
        std::snprintf(line, sizeof line,
                      "  %s/%s: metric missing (golden %.17g)\n",
                      d.point_id.c_str(), d.metric.c_str(), d.expected);
        break;
      case GoldenDiff::Kind::kValue:
        std::snprintf(line, sizeof line,
                      "  %s/%s: %.17g != golden %.17g (rel err %.3e)\n",
                      d.point_id.c_str(), d.metric.c_str(), d.actual,
                      d.expected, d.rel_error);
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace performa::runner
