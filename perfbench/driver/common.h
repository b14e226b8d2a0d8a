// Shared plumbing for the benchmark driver: clocks, in-memory spans, a
// tiny JSON emitter, and order shuffling from the workload seed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// Process CPU seconds (all threads) via getrusage(RUSAGE_SELF).
double process_cpu_seconds();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Spans. The driver records one span around each call into a layer's
// public function when tracing is on; spans live in memory and are
// written as JSON lines when the driver exits.

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;         ///< index of the enclosing span, -1 at top level
  std::uint32_t rid;  ///< request (answer) id shared by one answer's spans
};

class Tracer {
 public:
  bool enabled = false;
  std::vector<SpanRecord> spans;
  int open = -1;
  std::uint32_t rid = 0;

  void write(const std::string& path) const;
};

Tracer& tracer();

/// RAII span; a no-op (one branch) when tracing is off.
class Span {
 public:
  explicit Span(const char* name) {
    Tracer& t = tracer();
    if (!t.enabled) return;
    index_ = static_cast<int>(t.spans.size());
    t.spans.push_back({name, now_ns(), 0, t.open, t.rid});
    t.open = index_;
  }
  ~Span() {
    if (index_ < 0) return;
    Tracer& t = tracer();
    t.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    t.open = t.spans[static_cast<std::size_t>(index_)].parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

// ---------------------------------------------------------------------------
// Flat-ish JSON output: one object, values are numbers, strings or
// number arrays. Keys are emitted in insertion order.

class JsonOut {
 public:
  void num(const std::string& key, double value);
  void integer(const std::string& key, std::uint64_t value);
  void str(const std::string& key, const std::string& value);
  void array(const std::string& key, const std::vector<double>& values);
  void raw(const std::string& key, const std::string& json);
  std::string finish() const { return body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_ = "{";
};

std::string json_string(const std::string& s);
std::string json_double(double v);

/// Seeded permutation of 0..n-1 (the workload's order for one pass).
inline std::vector<std::size_t> shuffled(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), rng);
  return idx;
}

/// Relative agreement test used by every answer check.
bool close_rel(double got, double want, double rel_tol);

}  // namespace perfbench
