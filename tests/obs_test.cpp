// The obs tracing/metrics subsystem: span nesting and balance (also
// under exceptions), trace_event JSONL structure, the append-only
// record file, the fork handoff (inherited spans), race-free counters,
// the Prometheus metrics file, and the disabled-mode no-output
// guarantee.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/append_file.h"
#include "obs/fork.h"
#include "obs/log.h"
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

// Fork a child that enters the handoff, runs `body`, and _exits 0
// without leaving (like a SIGKILL: nothing is flushed on the way out).
// Returns the child's pid once it has been reaped.
template <typename Body>
pid_t run_forked_child(Body body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ForkHandoff::enter_child();
    body();
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return pid;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
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

TEST_F(ObsTest, AppendFileWritesHeaderOnceAndReadsBackLongLines) {
  const std::string path = temp_path("obs_append");
  std::remove(path.c_str());
  const std::string long_record(10000, 'r');  // past any fixed buffer
  {
    const AppendFile file(path, "head v1");
    file.append("a\n" + long_record + "\n");
    file.sync();
  }
  {
    // Reopening a non-empty file appends after it: no second header.
    const AppendFile file(path, "head v1");
    file.append("b\r\n\n");
  }
  std::optional<RecordFile> read = read_record_file(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->header, "head v1");
  EXPECT_EQ(read->records,
            (std::vector<std::string>{"a", long_record, "b"}));
  EXPECT_TRUE(read_record_file(path, /*header_only=*/true)->records.empty());

  // A torn last line is returned for the caller's checksum to reject.
  AppendFile(path, "").append("torn");
  EXPECT_EQ(read_record_file(path)->records.back(), "torn");

  // truncate drops the old contents and writes the header afresh.
  AppendFile(path, "head v2", /*truncate=*/true).append("c\n");
  EXPECT_EQ(read_file(path), "head v2\nc\n");
  std::remove(path.c_str());

  EXPECT_FALSE(read_record_file(path).has_value());
  EXPECT_THROW(AppendFile("/nonexistent-dir/f", "h"), std::runtime_error);
  EXPECT_THROW(AppendFile("/dev/full", "").append("x\n"), std::runtime_error);
}

TEST_F(ObsTest, LogWriteErrorIsCountedNotThrown) {
  // /dev/full opens fine and fails every write.
  set_log_file("/dev/full");
  PERFORMA_LOG(kError, "test.lost_line");
  reset_log_for_test();
  const MetricsSnapshot snap = snapshot_metrics();
  const auto* errors = snap.find("obs.log.write_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_DOUBLE_EQ(errors->value, 1.0);
}

TEST_F(ObsTest, AppendFileSharedAcrossForkNeverSplitsRecords) {
  // A forked child and its parent append large records to one inherited
  // fd at the same time: every record lands whole.
  const std::string path = temp_path("obs_append_fork");
  std::remove(path.c_str());
  constexpr int kRecords = 200;
  {
    const AppendFile file(path, "[");
    const auto write_records = [&file](char tag) {
      for (int i = 0; i < kRecords; ++i) {
        file.append(std::string(1, '{') + std::string(6000, tag) + "}\n");
      }
    };
    const pid_t pid = ::fork();
    if (pid == 0) {
      write_records('c');
      ::_exit(0);
    }
    write_records('p');
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  const std::optional<RecordFile> read = read_record_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->header, "[");
  ASSERT_EQ(read->records.size(), 2u * kRecords);
  for (const std::string& record : read->records) {
    ASSERT_EQ(record.size(), 6002u);
    const char tag = record[1];
    EXPECT_EQ(record, std::string(1, '{') + std::string(6000, tag) + "}");
  }
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
  // thread-local buffer is inherited by the child, and must not be
  // written by the child (the parent flushes it itself). The child's own
  // span lands in the parent's trace through the inherited fd, under
  // the child's pid.
  const std::string trace = temp_path("obs_child_trace");
  enable_trace_file(trace);
  {
    PERFORMA_SPAN("parent.buffered");
  }
  const pid_t child = run_forked_child([] {
    {
      PERFORMA_SPAN("child.own");
    }
    ForkHandoff::leave_child();
  });
  disable_trace();
  const std::string text = read_file(trace);
  std::remove(trace.c_str());
  EXPECT_EQ(text.rfind("[\n", 0), 0u) << text;
  EXPECT_EQ(count_of(text, "parent.buffered"), 1u) << text;
  EXPECT_EQ(count_of(text, "child.own"), 1u) << text;
  EXPECT_NE(text.find("\"pid\":" + std::to_string(child)), std::string::npos)
      << text;
  EXPECT_TRUE(testing::SiblingFiles(trace, ".frag.").empty());
}

}  // namespace
}  // namespace performa::obs
