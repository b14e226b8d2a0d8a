// Prometheus text exposition (format version 0.0.4) for the metrics
// registry -- zero dependencies, pure string rendering over a
// MetricsSnapshot.
//
// Registry names map onto Prometheus families: a plain name like
// "qbd.rsolver.solves" becomes family `qbd_rsolver_solves`; a name
// carrying labels, written `base{key="value",...}` at registration
// time, contributes one labelled sample to family `base`. Invalid
// name characters are folded to '_', label values are escaped per the
// exposition spec, and a family keeps the kind of its first (sorted)
// entry -- later entries of a different kind are dropped rather than
// emitting a family with two TYPE lines.
//
// Histograms render as cumulative `_bucket{le="..."}` lines over the
// power-of-two bucket edges actually populated, a `+Inf` bucket that
// absorbs the overflow bin, and `_sum`/`_count`.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace performa::obs {

/// A registry name split into family base and label pairs.
/// "d.q{op="solve"}" -> base "d.q", labels {{"op","solve"}}.
struct ParsedMetricName {
  std::string base;
  std::vector<std::pair<std::string, std::string>> labels;
};

/// Parse the `base{k="v",...}` registration convention. A name without
/// a well-formed label block is returned whole as the base.
ParsedMetricName parse_metric_name(const std::string& name);

/// Fold a registry name into the Prometheus metric-name charset
/// [a-zA-Z0-9_:], mapping '.' and every other invalid character to '_'
/// and prefixing '_' when the first character is a digit.
std::string sanitize_metric_name(const std::string& name);

/// Same for label names: charset [a-zA-Z0-9_], no leading digit.
std::string sanitize_label_name(const std::string& name);

/// Escape a label value per the exposition format: backslash, double
/// quote and newline become \\, \" and \n.
std::string escape_label_value(const std::string& value);

/// Render a snapshot as Prometheus text exposition. Deterministic:
/// families appear in snapshot (name-sorted) order.
std::string to_prometheus(const MetricsSnapshot& snap);

/// snapshot_metrics() rendered by to_prometheus().
std::string prometheus_metrics();

}  // namespace performa::obs
