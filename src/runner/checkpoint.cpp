#include "runner/checkpoint.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "linalg/errors.h"
#include "obs/metrics.h"

namespace performa::runner {

namespace {

constexpr char kHeaderPrefix[] = "performa-checkpoint v";

// Field separators are structural; anything the caller puts into a field
// is flattened so a record always round-trips.
std::string sanitize(std::string_view text, const char* forbidden) {
  std::string out(text);
  for (char& c : out) {
    if (c == '\n' || c == '\r' || std::strchr(forbidden, c) != nullptr) {
      c = '_';
    }
  }
  return out;
}

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

bool parse_size(const std::string& text, std::size_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string header_line(int version, const std::string& sweep_name) {
  return std::string(kHeaderPrefix) + std::to_string(version) + " " +
         sanitize(sweep_name, "|");
}

// "performa-checkpoint v<digits> <name>" -> (version, name).
bool parse_header(const std::string& line, int& version, std::string& name) {
  const std::size_t prefix = sizeof kHeaderPrefix - 1;
  if (line.compare(0, prefix, kHeaderPrefix) != 0) return false;
  const std::size_t sp = line.find(' ', prefix);
  if (sp == std::string::npos || sp == prefix) return false;
  const std::string digits = line.substr(prefix, sp - prefix);
  char* end = nullptr;
  const long v = std::strtol(digits.c_str(), &end, 10);
  if (end != digits.c_str() + digits.size()) return false;
  version = static_cast<int>(v);
  name = line.substr(sp + 1);
  return true;
}

}  // namespace

double CheckpointPoint::metric(const std::string& name) const noexcept {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

const CheckpointPoint* SweepCheckpoint::find(
    const std::string& id) const noexcept {
  const CheckpointPoint* hit = nullptr;
  for (const CheckpointPoint& p : points) {
    if (p.id == id) hit = &p;  // later records win
  }
  return hit;
}

std::uint32_t crc32(std::string_view data) {
  // Reflected CRC-32 (polynomial 0xEDB88320), table built on first use.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_point(const CheckpointPoint& point) {
  std::string payload;
  payload += std::to_string(point.index);
  payload += '|';
  payload += sanitize(point.id, "|");
  payload += '|';
  payload += to_string(point.outcome);
  payload += '|';
  payload += std::to_string(point.attempts);
  payload += '|';
  payload += sanitize(point.message, "|");
  payload += "||";  // <rng>: written empty
  for (std::size_t i = 0; i < point.metrics.size(); ++i) {
    if (i > 0) payload += ',';
    payload += sanitize(point.metrics[i].first, "|,=");
    payload += '=';
    payload += hex_double(point.metrics[i].second);
  }
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", crc32(payload));
  return std::string("P ") + crc + " " + payload;
}

bool decode_point(const std::string& line, CheckpointPoint& out) {
  // "P <8 hex> <payload>"
  if (line.size() < 11 || line.compare(0, 2, "P ") != 0 || line[10] != ' ') {
    return false;
  }
  const std::string crc_text = line.substr(2, 8);
  char* end = nullptr;
  const unsigned long crc_stored = std::strtoul(crc_text.c_str(), &end, 16);
  if (end != crc_text.c_str() + 8) return false;
  const std::string payload = line.substr(11);
  if (crc32(payload) != static_cast<std::uint32_t>(crc_stored)) return false;

  const std::vector<std::string> fields = split(payload, '|');
  if (fields.size() != 7) return false;

  CheckpointPoint p;
  std::size_t attempts = 0;
  if (!parse_size(fields[0], p.index)) return false;
  p.id = fields[1];
  if (!outcome_from_string(fields[2], p.outcome)) return false;
  if (!parse_size(fields[3], attempts)) return false;
  p.attempts = static_cast<unsigned>(attempts);
  p.message = fields[4];
  // fields[5] (<rng>) is ignored: older writers stored an RNG state there.
  if (!fields[6].empty()) {
    for (const std::string& pair : split(fields[6], ',')) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) return false;
      double value = 0.0;
      if (!parse_double(pair.substr(eq + 1), value)) return false;
      p.metrics.emplace_back(pair.substr(0, eq), value);
    }
  }
  out = std::move(p);
  return true;
}

obs::AppendFile open_checkpoint(const std::string& path,
                                const std::string& sweep_name) {
  PERFORMA_EXPECTS(!path.empty(), "open_checkpoint: empty path");
  if (const auto existing = obs::read_record_file(path, /*header_only=*/true);
      existing && !existing->header.empty()) {
    int version = 0;
    std::string name;
    PERFORMA_EXPECTS(
        parse_header(existing->header, version, name) &&
            version >= kMinCheckpointVersion &&
            version <= kCheckpointVersion && name == sanitize(sweep_name, "|"),
        "open_checkpoint: '" + path + "' exists but its header does not "
        "match this sweep/version (have '" + existing->header + "', want '" +
        header_line(kCheckpointVersion, sweep_name) + "' or a v" +
        std::to_string(kMinCheckpointVersion) + " equivalent)");
  }
  return obs::AppendFile(path, header_line(kCheckpointVersion, sweep_name));
}

void append_point(const obs::AppendFile& file, const CheckpointPoint& point,
                  bool sync) {
  const std::string record = encode_point(point) + "\n";
  file.append(record);
  if (sync) file.sync();

  static obs::Counter& records = obs::counter("runner.checkpoint.records");
  static obs::Counter& bytes = obs::counter("runner.checkpoint.bytes");
  records.add(1);
  bytes.add(record.size());
}

SweepCheckpoint load_checkpoint(const std::string& path) {
  const auto file = obs::read_record_file(path);
  if (!file) {
    throw NumericalError("load_checkpoint: cannot open '" + path + "'");
  }
  if (file->header.empty() && file->records.empty()) {
    throw InvalidArgument("load_checkpoint: '" + path + "' is empty");
  }
  SweepCheckpoint ck;
  if (!parse_header(file->header, ck.version, ck.sweep_name) ||
      ck.version < kMinCheckpointVersion || ck.version > kCheckpointVersion) {
    throw InvalidArgument("load_checkpoint: '" + path + "' is not a v" +
                          std::to_string(kMinCheckpointVersion) + "..v" +
                          std::to_string(kCheckpointVersion) +
                          " checkpoint (header '" + file->header + "')");
  }
  // id -> outcome of the latest record seen, for v2 duplicate rejection.
  std::vector<std::pair<std::string, Outcome>> latest;
  for (const std::string& line : file->records) {
    CheckpointPoint p;
    if (!decode_point(line, p)) {
      ++ck.dropped_records;  // torn append (short write) or damage
      continue;
    }
    if (ck.version >= 2) {
      bool duplicate_ok = false;
      bool seen = false;
      for (auto& [id, outcome] : latest) {
        if (id != p.id) continue;
        seen = true;
        duplicate_ok = outcome == Outcome::kOk;
        outcome = p.outcome;  // degraded records may be superseded
        break;
      }
      if (duplicate_ok) {
        throw InvalidArgument(
            "load_checkpoint: '" + path + "' holds a second record for "
            "point '" + p.id + "', which already has an ok record -- "
            "two sweeps appear to have shared this checkpoint");
      }
      if (!seen) latest.emplace_back(p.id, p.outcome);
    }
    ck.points.push_back(std::move(p));
  }
  return ck;
}

}  // namespace performa::runner
