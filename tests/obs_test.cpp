// The obs tracing/metrics subsystem: span nesting and balance (also
// under exceptions), trace_event JSONL structure, the fork handoff of
// trace fragments (torn tails, inherited spans), race-free counters,
// the Prometheus metrics file, and the disabled-mode no-output
// guarantee.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/fork.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "test_util.h"

namespace performa::obs {
namespace {

// Every test leaves tracing disabled and the registry zeroed so order
// does not matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disable_trace();
    reset_metrics_for_test();
  }
  void TearDown() override {
    disable_trace();
    reset_metrics_for_test();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += stem;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

// Fork a child that enters `handoff`, runs `body`, and _exits 0 without
// leaving (like a SIGKILL: nothing is flushed on the way out). Returns
// the child's pid once it has been reaped.
template <typename Body>
pid_t run_forked_child(const ForkHandoff& handoff, Body body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    handoff.enter_child();
    body();
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return pid;
}

// Append raw bytes to `path` (a child writing past its sink).
void append_bytes(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd >= 0) {
    (void)!::write(fd, bytes.data(), bytes.size());
    ::close(fd);
  }
}

TEST_F(ObsTest, SpanInertWhenDisabled) {
  EXPECT_FALSE(trace_enabled());
  {
    Span span("never.recorded");
    span.annotate("key", 1.0);
    EXPECT_EQ(span.elapsed_seconds(), 0.0);
  }
  enable_trace_memory();
  flush_trace();
  EXPECT_TRUE(drain_memory_trace().empty());
}

TEST_F(ObsTest, SpansNestAndBalance) {
  enable_trace_memory();
  {
    PERFORMA_SPAN("outer");
    {
      PERFORMA_SPAN("inner");
    }
  }
  flush_trace();
  const auto events = drain_memory_trace();
  ASSERT_EQ(events.size(), 2u);
  // Unwinding records innermost-first; the inner span must sit entirely
  // inside the outer one on the timeline.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us + 1e-3);
  EXPECT_GT(events[1].dur_us, 0.0);
  EXPECT_EQ(events[0].pid, events[1].pid);
}

TEST_F(ObsTest, SpansBalanceUnderExceptions) {
  enable_trace_memory();
  try {
    PERFORMA_SPAN("throwing.outer");
    PERFORMA_SPAN("throwing.inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  flush_trace();
  const auto events = drain_memory_trace();
  ASSERT_EQ(events.size(), 2u);  // both spans closed by unwinding
  EXPECT_STREQ(events[0].name, "throwing.inner");
  EXPECT_STREQ(events[1].name, "throwing.outer");
}

TEST_F(ObsTest, AnnotationsRenderAsJsonArgs) {
  enable_trace_memory();
  {
    Span span("annotated");
    span.annotate("label", std::string("tier \"2\""));
    span.annotate("count", std::uint64_t{7});
    span.annotate("ratio", 0.5);
  }
  flush_trace();
  const auto events = drain_memory_trace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].args.find("\"label\":\"tier \\\"2\\\"\""),
            std::string::npos)
      << events[0].args;
  EXPECT_NE(events[0].args.find("\"count\":7"), std::string::npos);
  EXPECT_NE(events[0].args.find("\"ratio\":0.5"), std::string::npos);
}

TEST_F(ObsTest, FileSinkWritesParsableTraceEventLines) {
  const std::string path = temp_path("obs_trace");
  enable_trace_file(path);
  {
    PERFORMA_SPAN("file.span");
  }
  flush_trace();
  disable_trace();

  const std::string text = read_file(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "[");  // JSON-array header; ']' optional per the spec
  std::size_t records = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++records;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), ',') << line;
    EXPECT_NE(line.find("\"ph\":\"X\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"name\":\"file.span\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"cat\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"dur\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"pid\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"tid\":"), std::string::npos) << line;
  }
  EXPECT_EQ(records, 1u);
}

TEST_F(ObsTest, MergeFragmentKeepsCompleteRecordsDropsTornTail) {
  const std::string trace = temp_path("obs_frag");
  enable_trace_file(trace);
  ForkHandoff handoff = ForkHandoff::prepare();
  run_forked_child(handoff, [] {
    // The child's sink is its fragment: one complete record, then a
    // record torn mid-write.
    append_bytes(trace_file_path(),
                 "{\"name\":\"worker.span\",\"ph\":\"X\",\"pid\":4242},\n"
                 "{\"name\":\"torn.span\",\"ph\":\"X\",\"pi");
  });
  EXPECT_EQ(handoff.absorb(), 1u);
  disable_trace();
  const std::string text = read_file(trace);
  EXPECT_NE(text.find("worker.span"), std::string::npos) << text;
  EXPECT_NE(text.find("\"pid\":4242"), std::string::npos);  // pid preserved
  EXPECT_EQ(text.find("torn.span"), std::string::npos) << text;
  // The fragment was consumed.
  EXPECT_TRUE(testing::SiblingFiles(trace, ".frag.").empty());

  // A worker that never wrote its fragment (killed before its first
  // flush) merges nothing.
  enable_trace_file(trace);
  ForkHandoff unwritten = ForkHandoff::prepare();
  EXPECT_EQ(unwritten.absorb(), 0u);
  disable_trace();
  std::remove(trace.c_str());
}

TEST_F(ObsTest, CountersAreRaceFreeAcrossThreads) {
  Counter& hits = counter("test.race.hits");
  Histogram& lat = histogram("test.race.latency");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&hits, &lat, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        hits.add(1);
        lat.record(0.001 * (t + 1));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(hits.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(lat.count(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_NEAR(lat.sum(), 0.001 * (1 + kThreads) / 2.0 * kThreads *
                             kAddsPerThread,
              1e-6);
}

TEST_F(ObsTest, GaugeAndHistogramQuantiles) {
  Gauge& g = gauge("test.gauge");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  Histogram& h = histogram("test.quantiles");
  for (int i = 0; i < 90; ++i) h.record(0.010);  // bucket [2^-7, 2^-6)
  for (int i = 0; i < 10; ++i) h.record(10.0);   // bucket [8, 16)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LE(h.quantile(0.5), 0.020);  // <= one bucket above the sample
  EXPECT_GE(h.quantile(0.5), 0.010);
  EXPECT_GE(h.quantile(0.99), 10.0);
  EXPECT_LE(h.quantile(0.99), 16.0);
}

// Registration-time kind checking.
TEST_F(ObsTest, RegistryRejectsKindMismatch) {
  counter("test.kind");
  EXPECT_THROW(gauge("test.kind"), std::runtime_error);
  EXPECT_THROW(histogram("test.kind"), std::runtime_error);
}

TEST_F(ObsTest, SnapshotFindsAndSerializes) {
  counter("test.snap.counter").add(3);
  gauge("test.snap.gauge").set(1.25);
  histogram("test.snap.hist").record(2.0);
  const MetricsSnapshot snap = snapshot_metrics();
  const auto* c = snap.find("test.snap.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 3.0);
  EXPECT_EQ(snap.find("test.snap.missing"), nullptr);

  const std::string text = to_prometheus(snap);
  EXPECT_NE(
      text.find("# TYPE test_snap_counter counter\ntest_snap_counter 3\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE test_snap_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_snap_hist histogram\n"),
            std::string::npos);
}

TEST_F(ObsTest, MetricsFileRoundTrip) {
  counter("test.file.counter").add(11);
  const std::string path = temp_path("obs_metrics");
  write_metrics_file(path);
  const std::string text = read_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(text, prometheus_metrics());
  EXPECT_NE(text.find("\ntest_file_counter 11\n"), std::string::npos) << text;
}

TEST_F(ObsTest, MetricsFileWriteErrorThrows) {
  counter("test.file.full").add(1);
  // /dev/full opens fine and fails the write: only checking fopen would
  // report a metrics file that was never written.
  EXPECT_THROW(write_metrics_file("/dev/full"), std::runtime_error);
  EXPECT_THROW(write_metrics_file("/nonexistent-dir/m.prom"),
               std::runtime_error);
}

TEST_F(ObsTest, ReopenInChildDiscardsInheritedSpans) {
  // Across a real fork: a span still sitting in the parent's
  // thread-local buffer is inherited by the child, and must not land in
  // the child's fragment (the parent flushes it itself).
  const std::string trace = temp_path("obs_child_frag");
  enable_trace_file(trace);
  {
    PERFORMA_SPAN("parent.buffered");
  }
  ForkHandoff handoff = ForkHandoff::prepare();
  const pid_t child = run_forked_child(handoff, [] {
    {
      PERFORMA_SPAN("child.own");
    }
    ForkHandoff::leave_child();
  });
  EXPECT_EQ(handoff.absorb(), 1u);
  disable_trace();
  const std::string text = read_file(trace);
  std::remove(trace.c_str());
  const auto count = [&text](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("parent.buffered"), 1u) << text;
  EXPECT_EQ(count("child.own"), 1u) << text;
  EXPECT_NE(text.find("\"pid\":" + std::to_string(child)), std::string::npos)
      << text;
}

}  // namespace
}  // namespace performa::obs
