#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <variant>

#include "obs/prometheus.h"

namespace performa::obs {

void Gauge::add(double delta) noexcept {
#if !defined(PERFORMA_OBS_DISABLED)
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
#else
  (void)delta;
#endif
}

void Histogram::record(double v) noexcept {
#if !defined(PERFORMA_OBS_DISABLED)
  if (std::isnan(v)) return;
  int bucket = 0;
  if (v > 0.0) {
    int exp = 0;
    std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
    bucket = std::max(exp + 31, 0);
  }
  if (bucket >= kBuckets) {
    // Above the top finite edge (2^32): overflow bin, tracking the max
    // so quantiles there can report a real bound.
    overflow_.fetch_add(1, std::memory_order_relaxed);
    double cur_max = overflow_max_.load(std::memory_order_relaxed);
    while (v > cur_max && !overflow_max_.compare_exchange_weak(
                              cur_max, v, std::memory_order_relaxed)) {
    }
  } else {
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
#else
  (void)v;
#endif
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (static_cast<double>(seen) >= target) {
      return std::ldexp(1.0, b - 31);  // bucket upper bound
    }
  }
  // The quantile falls in the overflow bin: the largest sample seen
  // there is an exact upper bound on it.
  const double omax = overflow_max();
  return omax > 0.0 ? omax : std::ldexp(1.0, kBuckets - 32);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  overflow_max_.store(0.0, std::memory_order_relaxed);
}

namespace {

using Instrument = std::variant<std::unique_ptr<Counter>,
                                std::unique_ptr<Gauge>,
                                std::unique_ptr<Histogram>>;

struct MetricsRegistry {
  std::mutex mutex;
  std::map<std::string, Instrument> instruments;
  std::string output_path;
};

MetricsRegistry& metrics_registry() {
  static MetricsRegistry* r = new MetricsRegistry;  // leaked: shutdown-safe
  return *r;
}

template <typename T>
T& lookup(const std::string& name, const char* kind) {
  MetricsRegistry& reg = metrics_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto it = reg.instruments.find(name);
  if (it == reg.instruments.end()) {
    it = reg.instruments.emplace(name, std::make_unique<T>()).first;
  }
  auto* slot = std::get_if<std::unique_ptr<T>>(&it->second);
  if (slot == nullptr) {
    throw std::runtime_error("obs: metric '" + name +
                             "' already registered as a different kind than " +
                             kind);
  }
  return **slot;
}

}  // namespace

Counter& counter(const std::string& name) {
  return lookup<Counter>(name, "counter");
}

Gauge& gauge(const std::string& name) { return lookup<Gauge>(name, "gauge"); }

Histogram& histogram(const std::string& name) {
  return lookup<Histogram>(name, "histogram");
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    const std::string& name) const noexcept {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

MetricsSnapshot snapshot_metrics() {
  MetricsRegistry& reg = metrics_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  MetricsSnapshot snap;
  snap.entries.reserve(reg.instruments.size());
  for (const auto& [name, instrument] : reg.instruments) {
    MetricsSnapshot::Entry e;
    e.name = name;
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&instrument)) {
      e.kind = MetricsSnapshot::Entry::Kind::kCounter;
      e.value = static_cast<double>((*c)->value());
    } else if (const auto* g =
                   std::get_if<std::unique_ptr<Gauge>>(&instrument)) {
      e.kind = MetricsSnapshot::Entry::Kind::kGauge;
      e.value = (*g)->value();
    } else {
      const auto& h = *std::get<std::unique_ptr<Histogram>>(instrument);
      e.kind = MetricsSnapshot::Entry::Kind::kHistogram;
      e.count = h.count();
      e.sum = h.sum();
      e.value = h.mean();
      e.buckets.resize(Histogram::kBuckets);
      for (int b = 0; b < Histogram::kBuckets; ++b) e.buckets[b] = h.bucket(b);
      e.overflow = h.overflow();
      e.overflow_max = h.overflow_max();
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;  // std::map iteration is already name-sorted
}

void write_metrics_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("obs: cannot open metrics file: " + path);
  }
  const std::string text = prometheus_metrics();
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written) {
    throw std::runtime_error("obs: cannot write metrics file: " + path);
  }
}

void set_metrics_path(const std::string& path) {
  MetricsRegistry& reg = metrics_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.output_path = path;
}

bool init_metrics_from_env() {
  MetricsRegistry& reg = metrics_registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (!reg.output_path.empty()) return true;
  }
  const char* path = std::getenv("PERFORMA_METRICS");
  if (path == nullptr || path[0] == '\0') return false;
  set_metrics_path(path);
  return true;
}

bool write_metrics_if_configured() {
  std::string path;
  {
    MetricsRegistry& reg = metrics_registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    path = reg.output_path;
  }
  if (path.empty()) return false;
  write_metrics_file(path);
  return true;
}

void reset_metrics_for_test() {
  MetricsRegistry& reg = metrics_registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& [name, instrument] : reg.instruments) {
    if (auto* c = std::get_if<std::unique_ptr<Counter>>(&instrument)) {
      (*c)->reset();
    } else if (auto* g = std::get_if<std::unique_ptr<Gauge>>(&instrument)) {
      (*g)->reset();
    } else {
      std::get<std::unique_ptr<Histogram>>(instrument)->reset();
    }
  }
}

}  // namespace performa::obs
