#include "obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace performa::obs {

namespace {

bool valid_name_char(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

bool valid_label_char(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return true;
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

// Render a double as valid exposition-format value text.
std::string number_text(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string uint_text(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// Join sanitized/escaped label pairs into `{k="v",...}`; "" when empty.
// `extra` appends one more pair (the `le` of histogram buckets).
std::string label_block(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& extra_key = "", const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize_label_name(k);
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;  // le edges need no escaping
    out += '"';
  }
  out += '}';
  return out;
}

const char* kind_name(MetricsSnapshot::Entry::Kind kind) {
  switch (kind) {
    case MetricsSnapshot::Entry::Kind::kCounter:
      return "counter";
    case MetricsSnapshot::Entry::Kind::kGauge:
      return "gauge";
    case MetricsSnapshot::Entry::Kind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

ParsedMetricName parse_metric_name(const std::string& name) {
  ParsedMetricName parsed;
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    parsed.base = name;
    return parsed;
  }
  std::vector<std::pair<std::string, std::string>> labels;
  std::size_t i = brace + 1;
  const std::size_t end = name.size() - 1;  // the closing '}'
  while (i < end) {
    const std::size_t eq = name.find('=', i);
    if (eq == std::string::npos || eq >= end || eq == i ||
        eq + 1 >= end || name[eq + 1] != '"') {
      parsed.base = name;  // malformed: keep the whole name as the base
      return parsed;
    }
    const std::string key = name.substr(i, eq - i);
    std::string value;
    std::size_t j = eq + 2;
    bool closed = false;
    while (j < end) {
      const char c = name[j];
      if (c == '\\' && j + 1 < end) {
        value += name[j + 1];
        j += 2;
        continue;
      }
      if (c == '"') {
        closed = true;
        ++j;
        break;
      }
      value += c;
      ++j;
    }
    if (!closed) {
      parsed.base = name;
      return parsed;
    }
    labels.emplace_back(key, value);
    if (j < end) {
      if (name[j] != ',') {
        parsed.base = name;
        return parsed;
      }
      ++j;
    }
    i = j;
  }
  parsed.base = name.substr(0, brace);
  parsed.labels = std::move(labels);
  return parsed;
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  // A leading digit is legal *after* position 0: prefix rather than
  // mangle, so "9lives" keeps its digit as "_9lives".
  if (!name.empty() && name.front() >= '0' && name.front() <= '9') out += '_';
  for (const char c : name) {
    out += valid_name_char(c, out.empty()) ? c : '_';
  }
  if (out.empty()) return "_";
  return out;
}

std::string sanitize_label_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name.front() >= '0' && name.front() <= '9') out += '_';
  for (const char c : name) {
    out += valid_label_char(c, out.empty()) ? c : '_';
  }
  if (out.empty()) return "_";
  return out;
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  // Group snapshot entries into families keyed by sanitized base name,
  // preserving first-appearance (name-sorted) order. A family's kind is
  // fixed by its first entry; a later entry of a different kind under
  // the same base (possible only across distinct registry names that
  // sanitize together) is dropped -- one family, one TYPE line.
  struct Sample {
    const MetricsSnapshot::Entry* entry;
    std::vector<std::pair<std::string, std::string>> labels;
  };
  struct Family {
    std::string base;
    MetricsSnapshot::Entry::Kind kind;
    std::vector<Sample> samples;
    std::set<std::string> seen_label_blocks;  // dedupe colliding names
  };
  std::vector<Family> families;
  std::map<std::string, std::size_t> index;
  for (const MetricsSnapshot::Entry& e : snap.entries) {
    ParsedMetricName parsed = parse_metric_name(e.name);
    const std::string base = sanitize_metric_name(parsed.base);
    auto [it, inserted] = index.emplace(base, families.size());
    if (inserted) {
      families.push_back(Family{base, e.kind, {}, {}});
    }
    Family& fam = families[it->second];
    if (fam.kind != e.kind) continue;  // kind mismatch: drop the sample
    const std::string block = label_block(parsed.labels);
    if (!fam.seen_label_blocks.insert(block).second) continue;
    fam.samples.push_back(Sample{&e, std::move(parsed.labels)});
  }

  std::string out;
  for (const Family& fam : families) {
    if (fam.samples.empty()) continue;
    out += "# TYPE ";
    out += fam.base;
    out += ' ';
    out += kind_name(fam.kind);
    out += '\n';
    for (const Sample& s : fam.samples) {
      const MetricsSnapshot::Entry& e = *s.entry;
      switch (fam.kind) {
        case MetricsSnapshot::Entry::Kind::kCounter:
          out += fam.base + label_block(s.labels) + ' ' +
                 uint_text(static_cast<std::uint64_t>(e.value)) + '\n';
          break;
        case MetricsSnapshot::Entry::Kind::kGauge:
          out += fam.base + label_block(s.labels) + ' ' +
                 number_text(e.value) + '\n';
          break;
        case MetricsSnapshot::Entry::Kind::kHistogram: {
          // Cumulative buckets over populated power-of-two edges; the
          // +Inf bucket absorbs the overflow bin and equals _count.
          std::uint64_t cumulative = 0;
          for (std::size_t b = 0; b < e.buckets.size(); ++b) {
            if (e.buckets[b] == 0) continue;
            cumulative += e.buckets[b];
            char edge[32];
            std::snprintf(edge, sizeof edge, "%.9g",
                          std::ldexp(1.0, static_cast<int>(b) - 31));
            out += fam.base + "_bucket" +
                   label_block(s.labels, "le", edge) + ' ' +
                   uint_text(cumulative) + '\n';
          }
          out += fam.base + "_bucket" + label_block(s.labels, "le", "+Inf") +
                 ' ' + uint_text(e.count) + '\n';
          out += fam.base + "_sum" + label_block(s.labels) + ' ' +
                 number_text(e.sum) + '\n';
          out += fam.base + "_count" + label_block(s.labels) + ' ' +
                 uint_text(e.count) + '\n';
          break;
        }
      }
    }
  }
  return out;
}

std::string prometheus_metrics() { return to_prometheus(snapshot_metrics()); }

}  // namespace performa::obs
