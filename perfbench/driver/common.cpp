#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <fstream>

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid << "}\n";
  }
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonOut::key(const std::string& k) {
  if (body_.size() > 1) body_ += ",";
  body_ += json_string(k) + ":";
}

void JsonOut::num(const std::string& k, double value) {
  key(k);
  body_ += json_double(value);
}

void JsonOut::integer(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonOut::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += json_string(value);
}

void JsonOut::array(const std::string& k, const std::vector<double>& values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) body_ += ",";
    body_ += json_double(values[i]);
  }
  body_ += "]";
}

void JsonOut::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
}

bool close_rel(double got, double want, double rel_tol) {
  if (!std::isfinite(got) || !std::isfinite(want)) return false;
  const double scale = std::max(std::fabs(want), 1e-300);
  return std::fabs(got - want) <= rel_tol * scale;
}

}  // namespace perfbench
