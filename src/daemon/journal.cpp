#include "daemon/journal.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "linalg/errors.h"
#include "obs/metrics.h"
#include "runner/checkpoint.h"

namespace performa::daemon {

namespace {

std::string header_line() {
  return "performad-cache v" + std::to_string(kJournalVersion);
}

// Throws InvalidArgument unless `header` is this version's. An empty
// header is an empty file (killed between create and header write),
// which counts as a fresh journal.
void expect_header(const std::string& path, const std::string& header) {
  PERFORMA_EXPECTS(header.empty() || header == header_line(),
                   "journal: '" + path + "' is not a v" +
                       std::to_string(kJournalVersion) +
                       " performad cache journal (header '" + header + "')");
}

obs::AppendFile open_journal(const std::string& path) {
  PERFORMA_EXPECTS(!path.empty(), "CacheJournal: empty path");
  if (const auto existing = obs::read_record_file(path, /*header_only=*/true)) {
    expect_header(path, existing->header);
  }
  return obs::AppendFile(path, header_line());
}

// Parses "r123" -> (kind 'r', 123). Returns false for scalar names.
bool parse_indexed(const std::string& name, char& kind, std::size_t& index) {
  if (name.size() < 2) return false;
  kind = name[0];
  if (kind != 'r' && kind != 'a' && kind != 'b') return false;
  char* end = nullptr;
  const unsigned long long i = std::strtoull(name.c_str() + 1, &end, 10);
  if (end != name.c_str() + name.size()) return false;
  index = static_cast<std::size_t>(i);
  return true;
}

}  // namespace

std::string encode_journal_record(const std::string& key,
                                  const CachedSolution& entry,
                                  std::uint64_t seq) {
  PERFORMA_EXPECTS(entry.solution != nullptr,
                   "encode_journal_record: empty entry");
  const qbd::QbdSolution& sol = *entry.solution;
  const std::size_t dim = sol.phase_dim();

  runner::CheckpointPoint point;
  point.index = static_cast<std::size_t>(seq);
  point.id = key;
  point.outcome = runner::Outcome::kOk;
  point.attempts = 1;
  point.metrics.reserve(5 + dim * dim + 2 * dim);
  point.metrics.emplace_back("m", static_cast<double>(dim));
  point.metrics.emplace_back("nu", entry.nu_bar);
  point.metrics.emplace_back("av", entry.availability);
  point.metrics.emplace_back("u", entry.utilization);
  point.metrics.emplace_back("lam", entry.lambda);
  const auto indexed = [](char kind, std::size_t i) {
    std::string name(1, kind);
    name += std::to_string(i);
    return name;
  };
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      point.metrics.emplace_back(indexed('r', i * dim + j), sol.r()(i, j));
    }
  }
  for (std::size_t i = 0; i < dim; ++i) {
    point.metrics.emplace_back(indexed('a', i), sol.pi0()[i]);
  }
  for (std::size_t i = 0; i < dim; ++i) {
    point.metrics.emplace_back(indexed('b', i), sol.pi1()[i]);
  }
  return runner::encode_point(point);
}

bool decode_journal_record(const std::string& line, std::string& key,
                           CachedSolution& entry) {
  runner::CheckpointPoint point;
  if (!runner::decode_point(line, point)) return false;
  if (point.outcome != runner::Outcome::kOk) return false;

  // One pass over the metric pairs: scalars by name, matrix/vector
  // entries by parsed index (metric(name) lookups would be quadratic
  // in the phase dimension).
  double dim_value = -1.0;
  CachedSolution out;
  std::vector<std::pair<std::size_t, double>> r_entries, pi0_entries,
      pi1_entries;
  for (const auto& [name, value] : point.metrics) {
    char kind = 0;
    std::size_t index = 0;
    if (parse_indexed(name, kind, index)) {
      if (kind == 'r') r_entries.emplace_back(index, value);
      else if (kind == 'a') pi0_entries.emplace_back(index, value);
      else pi1_entries.emplace_back(index, value);
    } else if (name == "m") {
      dim_value = value;
    } else if (name == "nu") {
      out.nu_bar = value;
    } else if (name == "av") {
      out.availability = value;
    } else if (name == "u") {
      out.utilization = value;
    } else if (name == "lam") {
      out.lambda = value;
    } else {
      return false;  // unknown field: a future format, not this one
    }
  }
  if (dim_value < 1.0 || dim_value != static_cast<double>(
                             static_cast<std::size_t>(dim_value))) {
    return false;
  }
  const std::size_t dim = static_cast<std::size_t>(dim_value);
  if (r_entries.size() != dim * dim || pi0_entries.size() != dim ||
      pi1_entries.size() != dim) {
    return false;
  }

  linalg::Matrix r(dim, dim, 0.0);
  linalg::Vector pi0(dim, 0.0), pi1(dim, 0.0);
  std::vector<bool> seen_r(dim * dim, false), seen_a(dim, false),
      seen_b(dim, false);
  for (const auto& [index, value] : r_entries) {
    if (index >= dim * dim || seen_r[index]) return false;
    seen_r[index] = true;
    r(index / dim, index % dim) = value;
  }
  for (const auto& [index, value] : pi0_entries) {
    if (index >= dim || seen_a[index]) return false;
    seen_a[index] = true;
    pi0[index] = value;
  }
  for (const auto& [index, value] : pi1_entries) {
    if (index >= dim || seen_b[index]) return false;
    seen_b[index] = true;
    pi1[index] = value;
  }

  try {
    out.solution = std::make_shared<qbd::QbdSolution>(
        std::move(r), std::move(pi0), std::move(pi1));
  } catch (const std::exception&) {
    return false;  // well-formed record, numerically nonsensical triple
  }
  key = point.id;
  entry = std::move(out);
  return true;
}

CacheJournal::CacheJournal(std::string path, bool sync)
    : path_(std::move(path)), sync_(sync), file_(open_journal(path_)) {}

void CacheJournal::append(const std::string& key,
                          const CachedSolution& entry) {
  const std::string record = encode_journal_record(key, entry, seq_) + "\n";
  file_.append(record);
  if (sync_) file_.sync();
  ++seq_;

  static obs::Counter& records = obs::counter("daemon.journal.records");
  static obs::Counter& bytes = obs::counter("daemon.journal.bytes");
  records.add(1);
  bytes.add(record.size());
}

void CacheJournal::compact(
    const std::vector<std::pair<std::string, CachedSolution>>& entries) {
  const std::string tmp = path_ + ".tmp";
  std::string body;
  std::uint64_t seq = 0;
  for (const auto& [key, entry] : entries) {
    body += encode_journal_record(key, entry, seq++);
    body += '\n';
  }
  try {
    const obs::AppendFile out(tmp, header_line(), /*truncate=*/true);
    out.append(body);
    out.sync();
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw NumericalError("CacheJournal: rename to '" + path_ + "' failed");
  }
  obs::sync_parent_dir(path_);
  file_ = obs::AppendFile(path_, header_line());
  static obs::Counter& compactions = obs::counter("daemon.journal.compactions");
  compactions.add(1);
}

JournalLoad load_journal(const std::string& path) {
  JournalLoad load;
  const auto file = obs::read_record_file(path);
  if (!file) return load;  // first boot: nothing to recover
  expect_header(path, file->header);
  // key -> position in load.entries, for later-records-win.
  std::unordered_map<std::string, std::size_t> by_key;
  for (const std::string& line : file->records) {
    std::string key;
    CachedSolution entry;
    if (!decode_journal_record(line, key, entry)) {
      ++load.dropped_records;
      continue;
    }
    ++load.records;
    auto it = by_key.find(key);
    if (it != by_key.end()) {
      load.entries[it->second].second = std::move(entry);  // later wins
    } else {
      by_key.emplace(key, load.entries.size());
      load.entries.emplace_back(std::move(key), std::move(entry));
    }
  }
  return load;
}

}  // namespace performa::daemon
